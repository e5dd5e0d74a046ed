package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/retry"
	"repro/internal/seq"
	"repro/internal/shard"
)

// Config lays out a coordinator: the slice topology.  How every slice client
// retries, fails over and hedges is fixed (see the package doc).
type Config struct {
	// Slices lists each slice's replica addresses; slice order defines the
	// global sequence index layout (slice s's offset is the sum of the
	// preceding slices' sequence counts).
	Slices [][]string
}

// pacing is a slice client's attempt budget, backoff and hedge trigger.  Open
// gives every client the zero value, which stands for the deployed pacing the
// package doc lists.  Only this package's tests set fields, to pace retries
// quickly and to force or forbid hedges.
type pacing struct {
	maxTries int          // stream attempts across the slice's replicas
	policy   retry.Policy // backoff between attempts
	// hedgeAfter fixes the hedge trigger (0 adapts it to the observed p95);
	// noHedge turns hedging off.
	hedgeAfter time.Duration
	noHedge    bool
}

// Coordinator owns a provider-backed shard engine whose shards are remote
// slice clients: searches fan out to every slice's replica set and merge
// through the standard strict-release rule, so the output stream is
// byte-identical to a single-process engine over the same corpus.
type Coordinator struct {
	eng     *shard.Engine
	clients []*Client
	infos   []Info
	offsets []int
	metrics *Metrics
	hc      *http.Client
}

// SliceHealth is one slice's replica health snapshot.
type SliceHealth struct {
	Slice    int             `json:"slice"`
	Offset   int             `json:"offset"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// Open connects to every slice, lays out the global sequence index space
// from the slices' Info, and assembles the provider-backed engine.  ctx
// bounds the startup info fetches only.
func Open(ctx context.Context, cfg Config) (*Coordinator, error) {
	return open(ctx, cfg, pacing{})
}

// open is Open with every slice client paced by pace, defaulted field by
// field.
func open(ctx context.Context, cfg Config, pace pacing) (*Coordinator, error) {
	if len(cfg.Slices) == 0 {
		return nil, fmt.Errorf("remote: no slices configured")
	}
	hc := &http.Client{Transport: newTransport()}

	co := &Coordinator{metrics: &Metrics{}, hc: hc}
	offset := 0
	var alphabet *seq.Alphabet
	for s, replicas := range cfg.Slices {
		info, err := fetchInfo(ctx, hc, s, replicas)
		if err != nil {
			return nil, err
		}
		al, err := alphabetByName(info.Alphabet)
		if err != nil {
			return nil, fmt.Errorf("remote: slice %d: %w", s, err)
		}
		if alphabet == nil {
			alphabet = al
		} else if alphabet != al {
			return nil, fmt.Errorf("remote: slice %d serves %s sequences, slice 0 serves %s",
				s, al.Name(), alphabet.Name())
		}
		// Every slice client shares the transport, the counters and the
		// pacing; the attempt budget and backoff default per replica count.
		client := &Client{
			slice: s, sequences: info.Sequences, replicas: replicas,
			hc: hc, pacing: pace, metrics: co.metrics,
		}
		if client.maxTries < 1 {
			client.maxTries = max(3, 2*len(replicas))
		}
		if client.policy.Base == 0 {
			client.policy = retry.Default(client.maxTries, 5*time.Millisecond, 250*time.Millisecond)
		}
		for _, addr := range replicas {
			client.health = append(client.health, &replicaState{addr: addr})
		}
		co.clients = append(co.clients, client)
		co.infos = append(co.infos, info)
		co.offsets = append(co.offsets, offset)
		offset += info.Sequences
	}

	// A slice is a part the coordinator knows only by its counts: sequence
	// identity travels on each hit's SeqID, and alignment recovery requires
	// the slice's serving process.
	set := shard.ProviderSet{Alphabet: alphabet}
	for i, c := range co.clients {
		set.Providers = append(set.Providers, c)
		set.Parts = append(set.Parts, shard.Part{Sequences: co.infos[i].Sequences, Residues: co.infos[i].Residues})
	}
	eng, err := shard.NewEngineFromProviders(set)
	if err != nil {
		return nil, err
	}
	co.eng = eng
	return co, nil
}

// fetchInfo asks a slice's replicas for their Info, trying each in turn with
// jittered backoff so a coordinator can start while part of a replica set is
// still coming up.
func fetchInfo(ctx context.Context, hc *http.Client, slice int, replicas []string) (Info, error) {
	if len(replicas) == 0 {
		return Info{}, fmt.Errorf("remote: slice %d has no replicas", slice)
	}
	policy := retry.Default(2, 50*time.Millisecond, 500*time.Millisecond)
	var lastErr error
	for attempt := 0; attempt <= policy.Retries; attempt++ {
		if attempt > 0 {
			if err := policy.Sleep(ctx, attempt-1); err != nil {
				return Info{}, err
			}
		}
		for _, addr := range replicas {
			info, err := getInfo(ctx, hc, addr)
			if err == nil {
				return info, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return Info{}, ctx.Err()
			}
		}
	}
	return Info{}, fmt.Errorf("remote: slice %d: no replica answered info: %w", slice, lastErr)
}

func getInfo(ctx context.Context, hc *http.Client, addr string) (Info, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL(addr)+PathInfo, nil)
	if err != nil {
		return Info{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Info{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Info{}, fmt.Errorf("remote: %s: info HTTP %d", addr, resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return Info{}, fmt.Errorf("remote: %s: bad info: %w", addr, err)
	}
	if info.Sequences <= 0 || info.Residues <= 0 {
		return Info{}, fmt.Errorf("remote: %s serves an empty slice", addr)
	}
	return info, nil
}

// Engine returns the provider-backed shard engine; its Search output is
// byte-identical to a single-process engine over the concatenated slices.
func (co *Coordinator) Engine() *shard.Engine { return co.eng }

// Infos returns the per-slice descriptions fetched at startup.
func (co *Coordinator) Infos() []Info { return co.infos }

// Health snapshots every slice's replica health.
func (co *Coordinator) Health() []SliceHealth {
	out := make([]SliceHealth, len(co.clients))
	for i, c := range co.clients {
		out[i] = SliceHealth{Slice: i, Offset: co.offsets[i], Replicas: c.Health()}
	}
	return out
}

// Metrics snapshots the fan-out robustness counters aggregated across all
// slice clients.
func (co *Coordinator) Metrics() MetricsSnapshot { return co.metrics.Snapshot() }

// Close releases the engine and the shared transport's idle connections.
func (co *Coordinator) Close() error {
	err := co.eng.Close()
	if t, ok := co.hc.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return err
}
