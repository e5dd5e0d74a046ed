package faultpoint

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestDisabledIsNil(t *testing.T) {
	defer Reset()
	if err := Hit(SiteDiskRead, "any"); err != nil {
		t.Fatalf("inactive site returned %v", err)
	}
	if Active() {
		t.Fatal("Active with no sites enabled")
	}
}

func TestErrorInjection(t *testing.T) {
	defer Reset()
	custom := errors.New("boom")
	Enable(SiteDiskRead, Spec{Mode: ModeError, Err: custom})
	if err := Hit(SiteDiskRead, ""); !errors.Is(err, custom) {
		t.Fatalf("got %v, want %v", err, custom)
	}
	// Default error wraps ErrInjected.
	Enable(SiteDiskRead, Spec{Mode: ModeError})
	if err := Hit(SiteDiskRead, ""); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	// Other sites stay clean.
	if err := Hit(SitePoolFill, ""); err != nil {
		t.Fatalf("inactive site returned %v", err)
	}
}

func TestTimesBound(t *testing.T) {
	defer Reset()
	Enable(SiteShardWorker, Spec{Mode: ModeError, Times: 2})
	fails := 0
	for i := 0; i < 10; i++ {
		if Hit(SiteShardWorker, "") != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("Times=2 fired %d times", fails)
	}
	if Fired(SiteShardWorker) != 2 {
		t.Fatalf("Fired = %d, want 2", Fired(SiteShardWorker))
	}
}

func TestMatchFilter(t *testing.T) {
	defer Reset()
	Enable(SiteDiskRead, Spec{Mode: ModeError, Match: "shard-2"})
	if err := Hit(SiteDiskRead, "/idx/shard-0.oasis"); err != nil {
		t.Fatalf("non-matching detail failed: %v", err)
	}
	if err := Hit(SiteDiskRead, "/idx/shard-2.oasis"); err == nil {
		t.Fatal("matching detail did not fail")
	}
}

func TestCorruptFlipsOneBit(t *testing.T) {
	defer Reset()
	Enable(SiteDiskBlock, Spec{Mode: ModeCorrupt})
	buf := make([]byte, 64)
	orig := make([]byte, 64)
	if err := HitBuf(SiteDiskBlock, "", buf); err != nil {
		t.Fatalf("corrupt mode returned error: %v", err)
	}
	diff := 0
	for i := range buf {
		if buf[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bytes, want 1", diff)
	}
	// Hit without a buffer is a no-op for corrupt specs.
	if err := Hit(SiteDiskBlock, ""); err != nil {
		t.Fatalf("bufferless Hit on corrupt spec: %v", err)
	}
}

func TestLatency(t *testing.T) {
	defer Reset()
	Enable(SitePoolFill, Spec{Mode: ModeLatency, Delay: 10 * time.Millisecond})
	start := time.Now()
	if err := Hit(SitePoolFill, ""); err != nil {
		t.Fatalf("latency mode returned error: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("latency injection slept only %v", d)
	}
}

func TestProbabilityDeterministic(t *testing.T) {
	defer Reset()
	run := func() []bool {
		Reset()
		Enable(SiteShardWorker, Spec{Mode: ModeError, Prob: 0.5})
		out := make([]bool, 50)
		for i := range out {
			out[i] = Hit(SiteShardWorker, "") != nil
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("probabilistic spec is not reproducible across runs")
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("prob 0.5 fired %d/%d times", fails, len(a))
	}
}

func TestParseEnv(t *testing.T) {
	defer Reset()
	err := ParseEnv("diskst.read=error; bufferpool.fill=latency:5ms:0.5 ;diskst.block=corrupt:0.25@shard-1.oasis")
	if err != nil {
		t.Fatalf("ParseEnv: %v", err)
	}
	if !Active() {
		t.Fatal("no sites active after ParseEnv")
	}
	if err := Hit(SiteDiskRead, ""); err == nil {
		t.Fatal("error spec did not fire")
	}
	// Corrupt spec with match: only the matching detail is corrupted.
	buf := bytes.Repeat([]byte{0xAA}, 8)
	want := bytes.Repeat([]byte{0xAA}, 8)
	for i := 0; i < 100; i++ {
		_ = HitBuf(SiteDiskBlock, "shard-0.oasis", buf)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("corrupt spec fired on non-matching detail")
	}
	for _, bad := range []string{"nosite", "x=warble", "y=latency", "z=error:2.0", "w=error:0.5:junk"} {
		Reset()
		if err := ParseEnv(bad); err == nil {
			t.Fatalf("ParseEnv(%q) accepted", bad)
		}
	}
}
