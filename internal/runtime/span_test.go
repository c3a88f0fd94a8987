package runtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// TestEngineSpansEndToEnd runs a traced punctuation through the full graph
// — source, union, sink — and checks the collector reconstructs at least
// one complete source→sink timeline with per-hop latencies.
func TestEngineSpansEndToEnd(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.Internal)
	spans := obs.New(1024)
	e, err := New(g, Options{OnDemandETS: false, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < 10; i++ {
		e.Ingest(s1, tuple.NewData(tuple.Time(i*10), tuple.Int(int64(i))))
		e.Ingest(s2, tuple.NewData(tuple.Time(i*10), tuple.Int(int64(-i))))
	}
	// Bounds on both inputs let the TSM union flush and forward punctuation.
	e.Ingest(s1, tuple.NewPunct(100))
	e.Ingest(s2, tuple.NewPunct(100))
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()

	if len(col.snapshot()) == 0 {
		t.Fatal("no output delivered")
	}
	if spans.Traces() == 0 {
		t.Fatal("no traces recorded")
	}
	tls := spans.Timelines(0)
	var complete *obs.Timeline
	for i := range tls {
		if tls[i].Complete {
			complete = &tls[i]
			break
		}
	}
	if complete == nil {
		t.Fatalf("no complete timeline among %d", len(tls))
	}
	if complete.Origin != "s1" && complete.Origin != "s2" {
		t.Errorf("origin = %q, want a source node", complete.Origin)
	}
	if len(complete.Hops) < 2 {
		t.Fatalf("timeline has %d hops, want >= 2 (source and union)", len(complete.Hops))
	}
	// The last hop must be the sink-feeding arc, marked terminal.
	last := complete.Hops[len(complete.Hops)-1]
	if !last.Sink {
		t.Errorf("last hop %q not marked as sink", last.Node)
	}
	if complete.TotalUs < 0 {
		t.Errorf("negative total latency %d", complete.TotalUs)
	}
	for _, h := range complete.Hops[1:] {
		if h.EnqueueAt == 0 {
			t.Errorf("hop %q missing enqueue stamp", h.Node)
		}
	}
	if spans.Dropped() != 0 {
		t.Errorf("unexpected drops: %d", spans.Dropped())
	}
}

// TestSnapshotConcurrentIngest hammers Snapshot's merge path — per-node
// instruments, the shard rollup, and the new per-arc lag histograms — while
// ingest and punctuation traffic is live on several goroutines. Run under
// -race this pins the snapshot read path against the hot write path.
func TestSnapshotConcurrentIngest(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.Internal)
	spans := obs.New(4096)
	const perStream = 300
	// The punctuation below promises bounds up to perStream µs: a clock
	// starting past them keeps every lag sample non-negative however fast
	// the engine delivers them.
	start := time.Now()
	now := func() tuple.Time { return perStream + tuple.FromDuration(time.Since(start)) }
	e, err := New(g, Options{OnDemandETS: true, Shards: 4, Spans: spans, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if e.ShardPlan() == nil {
		t.Fatal("union was not sharded")
	}
	e.Start()

	var wg sync.WaitGroup
	for _, src := range []*ops.Source{s1, s2} {
		wg.Add(1)
		go func(src *ops.Source) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				e.Ingest(src, tuple.NewData(tuple.Time(i), tuple.Int(int64(i))))
				if i%50 == 49 {
					e.Ingest(src, tuple.NewPunct(tuple.Time(i)))
				}
			}
		}(src)
	}
	stop := make(chan struct{})
	var snapWg sync.WaitGroup
	snapWg.Add(1)
	go func() {
		defer snapWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := e.Snapshot()
			for _, ns := range snap.Nodes {
				if ns.BlockingInput < -1 {
					t.Errorf("node %s blocking input %d", ns.Node, ns.BlockingInput)
				}
				for _, a := range ns.Arcs {
					if a.Port < 0 {
						t.Errorf("node %s arc port %d", ns.Node, a.Port)
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()
	close(stop)
	snapWg.Wait()

	if len(col.snapshot()) == 0 {
		t.Fatal("no output delivered")
	}
	snap := e.Snapshot()
	if len(snap.ShardTuples) != 4 {
		t.Fatalf("shard rollup = %v, want 4 entries", snap.ShardTuples)
	}
	// Punctuation flowed on every interior arc: some node (the sharded
	// union replicas, or the sink) must carry raised arc watermarks and
	// populated lag reservoirs.
	var sawLag bool
	for _, ns := range snap.Nodes {
		if len(ns.Arcs) == 0 {
			t.Fatalf("node %s snapshot has no arcs", ns.Node)
		}
		for _, a := range ns.Arcs {
			if a.Watermark > tuple.MinTime && a.Lag.Count > 0 {
				sawLag = true
				if a.Lag.Percentile(50) < 0 {
					t.Errorf("%s port %d negative lag p50", ns.Node, a.Port)
				}
			}
		}
	}
	if !sawLag {
		t.Error("no arc recorded watermark lag")
	}
	if spans.Traces() == 0 {
		t.Error("no traces recorded under concurrent ingest")
	}
}
