// Package faultpoint is a tiny failpoint-injection framework: named sites in
// the serving path (disk reads, buffer-pool fills, shard workers, the result
// cache, HTTP handlers) call Hit, and tests or operators activate fault specs
// at those sites to inject errors, latency or data corruption without
// touching production code paths.
//
// The framework exists so that every fault-tolerance claim in the stack —
// checksum detection, read retries, shard quarantine, degraded streams,
// per-query deadlines — is testable end to end: the fault-matrix tests in
// internal/shard and the corruption fuzz target in internal/diskst drive real
// failures through the real code.
//
// # Zero overhead when disabled
//
// With no active sites, Hit is a single atomic load and an immediate return;
// no map lookup, no lock, no allocation.  Production binaries pay nothing
// for carrying the sites.
//
// # Activation
//
// Tests use the API directly:
//
//	defer faultpoint.Reset()
//	faultpoint.Enable(faultpoint.SiteDiskRead, faultpoint.Spec{
//	    Mode: faultpoint.ModeError, Match: "shard-2.oasis", Times: 1,
//	})
//
// Operators (and CI) use the OASIS_FAILPOINTS environment variable, parsed at
// package init time:
//
//	OASIS_FAILPOINTS="diskst.read=error;bufferpool.fill=latency:5ms;diskst.block=corrupt:0.01"
//
// Each entry is site=mode[:arg][:prob][@match]: mode is error, latency or
// corrupt; latency takes a duration arg; prob is a trigger probability in
// (0,1] (default 1); match restricts the spec to Hit calls whose detail
// string (e.g. the file path) contains the substring.
package faultpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names wired into the serving path.  A site constant names WHERE a
// fault is injected; the Spec decides WHAT happens there.
const (
	// SiteDiskRead is every read of an index file in internal/diskst
	// (header, catalog, checksum table, and buffer-pool fills routed through
	// the checksummed reader).  Error and latency specs model failing or
	// slow disks; the detail string is the index file path.
	SiteDiskRead = "diskst.read"
	// SiteDiskBlock sees every data block after it is read but before its
	// checksum is verified; corrupt specs model bit rot that the CRC32C
	// layer must catch.  The detail string is the index file path.
	SiteDiskBlock = "diskst.block"
	// SitePoolFill is the buffer-pool page-fill path (cache misses).
	SitePoolFill = "bufferpool.fill"
	// SiteShardWorker runs at the start of each per-shard search; error
	// specs model a wedged or crashed shard worker.  The detail string is
	// "shard-<i>".
	SiteShardWorker = "shard.worker"
	// SiteServeSearch runs at the start of oasis-serve's search and batch
	// handlers; error specs model handler-level failures (HTTP 500).
	SiteServeSearch = "serve.search"
	// SiteCompactSwap fires during delta compaction (diskst.Dir.Commit), after
	// each step that leaves something behind: the new delta index file
	// written to its temporary name, renamed into place, reopened, and the
	// next manifest written to its temporary name.  Error specs model a crash
	// mid-compaction: the old manifest (and every file it references) must
	// stay intact and openable, and nothing else may remain.  The detail
	// string is the step — "build", "rename", "open" or "manifest" — then the
	// file name, so Match can pick one step.
	SiteCompactSwap = "compact.swap"
	// SiteRemoteDial fires in the coordinator's shard client before each
	// stream request is issued to a replica; error specs model a dead or
	// unreachable replica, latency specs a slow connect (which is what makes
	// the hedge timer fire).  The detail string is the replica address.
	SiteRemoteDial = "remote.dial"
	// SiteRemoteStream sees every event line the shard client reads from a
	// replica, before it is decoded: error specs model a connection dropped
	// mid-stream (failover territory), latency specs a tail-slow replica,
	// corrupt specs bit rot on the wire that the decoder must reject.  The
	// detail string is the replica address.
	SiteRemoteStream = "remote.stream"
	// SiteRemoteHedge fires when the coordinator launches a hedge request
	// against a second replica; error specs suppress the hedge attempt,
	// latency specs delay it.  The detail string is the hedged replica's
	// address.
	SiteRemoteHedge = "remote.hedge"
)

// Mode selects what an active spec does when it triggers.
type Mode int

const (
	// ModeError makes Hit return the spec's error.
	ModeError Mode = iota
	// ModeLatency makes Hit sleep for the spec's delay, then succeed.
	ModeLatency
	// ModeCorrupt makes HitBuf flip one bit of the supplied buffer (Hit
	// calls without a buffer succeed unchanged).
	ModeCorrupt
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModeCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ErrInjected is the default error returned by ModeError specs.
var ErrInjected = errors.New("faultpoint: injected fault")

// Spec describes one activated fault.
type Spec struct {
	// Mode selects error, latency or corruption injection.
	Mode Mode
	// Err is the error ModeError returns (default ErrInjected).
	Err error
	// Delay is the sleep ModeLatency injects.
	Delay time.Duration
	// Prob is the trigger probability in (0,1]; 0 means always trigger.
	// Draws come from a per-site PRNG seeded deterministically from the
	// site name, so a given spec misfires reproducibly run to run.
	Prob float64
	// Times bounds how often the spec triggers (0 = unlimited).  A spec
	// with Times=1 injects exactly one fault — the shape quarantine tests
	// want: one failure, then a healthy system.
	Times int64
	// After lets the first After matching calls pass untouched before the
	// spec starts triggering, so tests can place a fault mid-stream
	// deterministically (e.g. kill a replica connection after the 5th event)
	// instead of probabilistically.
	After int64
	// Match restricts the spec to Hit calls whose detail string contains
	// this substring (e.g. one shard's file path); empty matches every
	// call at the site.
	Match string
}

// site is one activated site's state.
type site struct {
	mu     sync.Mutex
	spec   Spec
	rng    *rand.Rand
	fired  int64
	passed int64 // matching calls let through by Spec.After
}

var (
	// nActive counts activated sites; Hit's fast path is a single load of
	// this counter.
	nActive atomic.Int64

	mu    sync.Mutex
	sites = map[string]*site{}
)

// seedFor derives a deterministic PRNG seed from the site name so
// probabilistic specs behave identically run to run.
func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h = (h ^ int64(name[i])) * 1099511628211
	}
	return h
}

// Enable activates a spec at the named site, replacing any previous spec
// there.
func Enable(name string, spec Spec) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; !ok {
		nActive.Add(1)
	}
	sites[name] = &site{spec: spec, rng: rand.New(rand.NewSource(seedFor(name)))}
}

// Reset deactivates every site (deferred by tests).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	nActive.Add(-int64(len(sites)))
	sites = map[string]*site{}
}

// Active reports whether any site is activated.
func Active() bool { return nActive.Load() > 0 }

// Fired returns how many times the named site has triggered (0 when the
// site is not active).
func Fired(name string) int64 {
	mu.Lock()
	s := sites[name]
	mu.Unlock()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// Hit evaluates the named site: with no active spec (the production case) it
// returns nil after one atomic load.  detail carries call context the spec's
// Match can filter on (a file path, a shard name); pass "" when there is
// none.
func Hit(name, detail string) error {
	if nActive.Load() == 0 {
		return nil
	}
	return hitSlow(name, detail, nil)
}

// HitBuf is Hit for sites that expose a data buffer: a triggering ModeCorrupt
// spec flips one bit of buf in place (and returns nil, so the corruption
// travels onward exactly as disk bit rot would).
func HitBuf(name, detail string, buf []byte) error {
	if nActive.Load() == 0 {
		return nil
	}
	return hitSlow(name, detail, buf)
}

func hitSlow(name, detail string, buf []byte) error {
	mu.Lock()
	s := sites[name]
	mu.Unlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	spec := s.spec
	if spec.Match != "" && !strings.Contains(detail, spec.Match) {
		s.mu.Unlock()
		return nil
	}
	if spec.After > 0 && s.passed < spec.After {
		s.passed++
		s.mu.Unlock()
		return nil
	}
	if spec.Times > 0 && s.fired >= spec.Times {
		s.mu.Unlock()
		return nil
	}
	if spec.Prob > 0 && spec.Prob < 1 && s.rng.Float64() >= spec.Prob {
		s.mu.Unlock()
		return nil
	}
	s.fired++
	fired := s.fired
	s.mu.Unlock()

	switch spec.Mode {
	case ModeLatency:
		time.Sleep(spec.Delay)
		return nil
	case ModeCorrupt:
		if len(buf) > 0 {
			// Deterministic position: spread successive corruptions across
			// the buffer without consuming PRNG state under the site lock.
			i := int(fired-1) % len(buf)
			buf[i] ^= 1 << (uint(fired) % 8)
		}
		return nil
	default:
		if spec.Err != nil {
			return spec.Err
		}
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
}

// ParseEnv activates every entry of an OASIS_FAILPOINTS-style string:
// semicolon-separated site=mode[:arg][:prob][@match] entries (see the
// package comment).  It returns the first parse error, after activating the
// valid entries before it.
func ParseEnv(env string) error {
	for _, entry := range strings.Split(env, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, specStr, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return fmt.Errorf("faultpoint: bad entry %q (want site=spec)", entry)
		}
		spec, err := parseSpec(specStr)
		if err != nil {
			return fmt.Errorf("faultpoint: site %s: %w", name, err)
		}
		Enable(strings.TrimSpace(name), spec)
	}
	return nil
}

// parseSpec parses mode[:arg][:prob][@match].
func parseSpec(s string) (Spec, error) {
	var spec Spec
	s, match, hasMatch := cutLast(s, "@")
	if hasMatch {
		spec.Match = match
	}
	parts := strings.Split(s, ":")
	switch strings.TrimSpace(parts[0]) {
	case "error":
		spec.Mode = ModeError
	case "latency":
		spec.Mode = ModeLatency
	case "corrupt":
		spec.Mode = ModeCorrupt
	default:
		return Spec{}, fmt.Errorf("unknown mode %q", parts[0])
	}
	rest := parts[1:]
	if spec.Mode == ModeLatency {
		if len(rest) == 0 {
			return Spec{}, fmt.Errorf("latency needs a duration (latency:5ms)")
		}
		d, err := time.ParseDuration(strings.TrimSpace(rest[0]))
		if err != nil {
			return Spec{}, fmt.Errorf("bad latency duration: %w", err)
		}
		spec.Delay = d
		rest = rest[1:]
	}
	if len(rest) > 0 {
		p, err := strconv.ParseFloat(strings.TrimSpace(rest[0]), 64)
		if err != nil || p <= 0 || p > 1 {
			return Spec{}, fmt.Errorf("bad probability %q (want (0,1])", rest[0])
		}
		spec.Prob = p
		rest = rest[1:]
	}
	if len(rest) > 0 {
		return Spec{}, fmt.Errorf("trailing spec fields %q", strings.Join(rest, ":"))
	}
	return spec, nil
}

// cutLast splits s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// EnvVar is the environment variable parsed at init time.
const EnvVar = "OASIS_FAILPOINTS"

func init() {
	if env := os.Getenv(EnvVar); env != "" {
		if err := ParseEnv(env); err != nil {
			fmt.Fprintln(os.Stderr, "faultpoint:", err)
		}
	}
}
