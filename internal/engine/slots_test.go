package engine

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestBlockedConsumerHoldsNoSlot pins the slot contract at one slot: a batch
// whose consumer stops reading gives its slot back at the first send that
// would block, so a second batch still runs to completion.
func TestBlockedConsumerHoldsNoSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 40, 120)
	eng, err := New(db, Options{Shards: 1, BatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.resultBuffer = 1
	// MinScore 1 reports nearly every sequence: far more hits than the
	// buffer holds.
	q := Query{Residues: seq.Protein.MustEncode("ACDEFGHIKLMNPQRSTVWY"), Options: core.Options{Scheme: scheme, MinScore: 1}}

	stalled := eng.SubmitBatch(context.Background(), []Query{q})
	deadline := time.Now().Add(5 * time.Second)
	for len(stalled) < cap(stalled) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the stalled query reach its blocked send

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		hits := 0
		for r := range eng.SubmitBatch(context.Background(), []Query{q}) {
			if !r.Done {
				hits++
			} else if r.Err != nil {
				t.Errorf("second batch: %v", r.Err)
			}
		}
		if hits < 3 {
			t.Errorf("second batch reported %d hits, want >= 3", hits)
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Error("a batch nobody reads kept the only search slot: the second batch never finished")
	}
	hits, _ := collectBatch(t, 1, stalled)
	<-finished
	if len(hits[0]) < 3 {
		t.Fatalf("stalled batch reported %d hits, want >= 3", len(hits[0]))
	}
}

// TestTurnQueuesClientsFairly pins the slot queue at one slot, by the order
// in which queries wait for and get it: a one-query batch under its own Turn
// gets the slot after at most two of another client's queries, however many
// batches that client has in flight under its Turn.  One load query may be
// waiting for the slot when the batch starts to, and one more may join the
// queue in the instant before it does; were each batch its own place in the
// queue, the eight-batch load would have up to seven queries ahead of it.
func TestTurnQueuesClientsFairly(t *testing.T) {
	db, _, err := workload.ProteinDatabase(workload.DefaultProteinConfig(60_000))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, Options{Shards: 1, BatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	type slotEvent struct {
		ctx     context.Context
		granted bool
	}
	var mu sync.Mutex
	var events []slotEvent
	eng.slotHook = func(ctx context.Context, granted bool) {
		mu.Lock()
		events = append(events, slotEvent{ctx, granted})
		mu.Unlock()
	}
	grants := func() (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, ev := range events {
			if ev.granted {
				n++
			}
		}
		return n
	}
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	queries := make([]Query, 64)
	for i := range queries {
		r := db.Sequence(i).Residues
		queries[i] = Query{Residues: r[:min(len(r), 100)], Options: core.Options{Scheme: scheme, MinScore: 20}}
	}
	quick := Query{Residues: seq.Protein.MustEncode("DKDGDGCITTKEL"), Options: core.Options{Scheme: scheme, MinScore: 40}}
	for _, batches := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		loadCtx := WithTurn(ctx, NewTurn(0))
		base := grants()
		var wg sync.WaitGroup
		per := len(queries) / batches
		for b := 0; b < batches; b++ {
			wg.Add(1)
			go func(part []Query) {
				defer wg.Done()
				for range eng.SubmitBatch(loadCtx, part) {
				}
			}(queries[b*per : (b+1)*per])
		}
		for deadline := time.Now().Add(10 * time.Second); grants() < base+2+batches; {
			if time.Now().After(deadline) {
				t.Fatalf("%d batches: the load made no progress", batches)
			}
			time.Sleep(time.Millisecond)
		}
		mine := WithTurn(ctx, NewTurn(0))
		_, dones := collectBatch(t, 1, eng.SubmitBatch(mine, []Query{quick}))
		cancel()
		wg.Wait()
		if dones[0].Err != nil {
			t.Fatalf("%d batches: interactive query failed: %v", batches, dones[0].Err)
		}
		mu.Lock()
		ahead, waiting := 0, false
		for _, ev := range events {
			switch {
			case ev.ctx == mine && ev.granted:
				waiting = false
			case ev.ctx == mine:
				waiting = true
			case waiting && ev.granted:
				ahead++
			}
		}
		mu.Unlock()
		if ahead > 2 {
			t.Errorf("%d batches under one Turn: %d of their queries got the slot while a one-query batch waited, want <= 2", batches, ahead)
		}
	}
}

// heldProvider streams a local shard engine as a remote slice would, except
// that the hold query waits, once it reached the provider, until release is
// closed: a query stuck on the network.
type heldProvider struct {
	eng              *shard.Engine
	hold             []byte
	waiting, release chan struct{}
}

func (p *heldProvider) Stream(q []byte, opts core.Options, hit func(core.Hit) bool, bound func(int) bool) error {
	if bytes.Equal(q, p.hold) {
		close(p.waiting)
		<-p.release
	}
	return p.eng.SearchBounded(q, opts, hit, bound)
}

// TestRemoteWaitHoldsNoSlot pins the coordinator's side of the slot contract
// at one slot: a query whose remote slice has not answered holds no slot, so
// another query still runs to completion.
func TestRemoteWaitHoldsNoSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scheme := score.MustScheme(score.ByName("PAM30"), -10)
	db := randomEngineDB(t, rng, seq.Protein, 40, 120)
	local, err := shard.NewEngine(db, shard.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := seq.Protein.MustEncode("ACDEFGHIKLMNPQRSTVWY")
	p := &heldProvider{eng: local, hold: held, waiting: make(chan struct{}), release: make(chan struct{})}
	view, err := shard.NewEngineFromProviders(shard.ProviderSet{
		Alphabet: seq.Protein, Providers: []shard.Provider{p},
		Parts:   []shard.Part{{Catalog: local.Catalog(), Sequences: db.NumSequences(), Residues: db.TotalResidues()}},
		Closers: []io.Closer{local},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewFromShardEngine(view, Options{BatchWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	opts := core.Options{Scheme: scheme, MinScore: 1}
	stuck := eng.SubmitBatch(context.Background(), []Query{{Residues: held, Options: opts}})
	<-p.waiting
	finished := make(chan []Result, 1)
	go func() {
		_, dones := collectBatch(t, 1, eng.SubmitBatch(context.Background(), []Query{{Residues: seq.Protein.MustEncode("WYWYHHKK"), Options: opts}}))
		finished <- dones
	}()
	select {
	case dones := <-finished:
		if dones[0].Err != nil {
			t.Errorf("second query: %v", dones[0].Err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a query waiting on its remote slice kept the only search slot: the second query never finished")
	}
	close(p.release)
	hits, dones := collectBatch(t, 1, stuck)
	if dones[0].Err != nil || len(hits[0]) < 3 {
		t.Fatalf("held query: %d hits, %v; want >= 3 hits", len(hits[0]), dones[0].Err)
	}
}
