package adapt

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/window"
)

const (
	smokeTuples     = 60_000
	smokeShards     = 4
	smokePhases     = 3
	smokePunctEvery = 512  // seqs between explicit punctuation rounds
	smokeSpan       = 2048 // join window span (virtual time units)

	// smokeInflight caps un-delivered seqs in flight, pacing ingestion to
	// the join's drain rate so the splitters' routing frontier (and hence
	// every retarget barrier) stays just ahead of processing.
	smokeInflight = 4096
)

// driftingKeys builds the drifting-skew key sequence: per unique keys, each
// hashing to a bucket that canonically maps to shard 0, partitioned into
// phases that use disjoint bucket families — so even a one-shot hand-placed
// assignment goes stale.
func driftingKeys(per, shards, phases int) []int64 {
	keys := make([]int64, per)
	perPhase := (per + phases - 1) / phases
	next := int64(0)
	for p := 0; p < phases; p++ {
		lo, hi := p*perPhase, (p+1)*perPhase
		if hi > per {
			hi = per
		}
		for i := lo; i < hi; {
			k := next
			next++
			b := int(tuple.Int(k).Hash() % ops.SplitBuckets)
			if b%shards != 0 || (b/shards)%phases != p {
				continue
			}
			keys[i] = k
			i++
		}
	}
	return keys
}

// TestAdaptiveSmoke runs the controller end to end on a workload built to
// punish static configuration: (s1 ∪ s2) ⋈[key] s3 at 4 shards, fed keys
// whose hash buckets all map canonically to shard 0 and whose hot bucket set
// drifts between phases. The run starts on the canonical table and default
// batch size; the controller must retune at least once at a punctuation
// boundary. Keys are unique (one matching twin per left tuple), so join rows
// == tuples per side is the exactness gate, and the engine's late counter at
// the sink is the ordering gate: a reconfiguration that leaked a tuple
// across a bound would count there.
func TestAdaptiveSmoke(t *testing.T) {
	per := smokeTuples / 2
	keys := driftingKeys(per, smokeShards, smokePhases)

	sch := tuple.NewSchema("s",
		tuple.Field{Name: "key", Kind: tuple.IntKind},
		tuple.Field{Name: "seq", Kind: tuple.IntKind},
	).WithTS(tuple.External)
	// Virtual external timestamps run far slower than the wall clock the
	// external ETS estimator extrapolates with, so δ must cover the whole
	// virtual horizon or the join-row count stops being deterministic.
	const δ = 1 << 40
	g := graph.New("adaptsmoke")
	var srcs [3]*ops.Source
	var ids [3]graph.NodeID
	for i, name := range []string{"s1", "s2", "s3"} {
		srcs[i] = ops.NewSource(name, sch, δ)
		ids[i] = g.AddNode(srcs[i])
	}
	u := g.AddNode(ops.NewUnion("u", sch, 2, ops.TSM), ids[0], ids[1])
	j := g.AddNode(ops.NewEquiWindowJoin("j", nil,
		window.TimeWindow(smokeSpan), window.TimeWindow(smokeSpan), 0, 0, ops.TSM), u, ids[2])
	var rows atomic.Uint64
	lat := metrics.NewReservoir(4096)
	g.AddNode(ops.NewSink("k", func(tp *tuple.Tuple, now tuple.Time) {
		rows.Add(1)
		lat.Observe(int64(now - tp.Arrived)) // sink goroutine only
	}), j)

	e, err := runtime.New(g, runtime.Options{
		Shards: smokeShards,
		Trace:  metrics.NewTracer(8192),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(e, &Options{
		Interval: 2 * time.Millisecond,
		Latency:  lat,
		// The driver punctuates every smokePunctEvery seqs, so half a
		// round is the tightest barrier lead a punctuation is still
		// guaranteed to cross promptly. The default (one tick's
		// event-time advance) would balloon during fast drain bursts
		// and push every swap thousands of seqs into the future.
		BarrierLead: smokePunctEvery / 2,
	})
	e.Start()
	ctl.Start()

	const span = 64
	var magL, magR tuple.Magazine
	mk := func(mag *tuple.Magazine, seq int64) *tuple.Tuple {
		tp := mag.Get()
		tp.Ts = tuple.Time(seq)
		tp.Kind = tuple.Data
		tp.Vals = append(tp.Vals, tuple.Int(keys[seq]), tuple.Int(seq))
		return tp
	}
	rawsL := make([]*tuple.Tuple, 0, span)
	rawsR := make([]*tuple.Tuple, 0, span)
	for i := 0; i < per; i += span {
		// Flow control: splitter routing is orders of magnitude cheaper
		// than the join, so an unpaced driver lets the routing frontier
		// race to end-of-stream within milliseconds — every barrier would
		// land past the data and rebalancing could never redirect load.
		for i-int(rows.Load()) > smokeInflight {
			time.Sleep(20 * time.Microsecond)
		}
		n := span
		if rem := per - i; rem < n {
			n = rem
		}
		rawsR = rawsR[:0]
		rawsL = rawsL[:0]
		for k := 0; k < n; k++ {
			rawsR = append(rawsR, mk(&magR, int64(i+k)))
			rawsL = append(rawsL, mk(&magL, int64(i+k)))
		}
		e.IngestBatch(srcs[2], rawsR)
		e.IngestBatch(srcs[(i/span)%2], rawsL)
		if i/smokePunctEvery != (i+span)/smokePunctEvery {
			// Bounds are exact: every future tuple on every source carries
			// ts > seq. These explicit rounds are the boundaries all
			// reconfigurations apply at — and because a key's twins share
			// one timestamp, a retarget barrier can never split a pair
			// across two shard assignments.
			p := tuple.Time(i + n)
			e.Ingest(srcs[2], tuple.NewPunct(p))
			e.Ingest(srcs[0], tuple.NewPunct(p))
			e.Ingest(srcs[1], tuple.NewPunct(p))
		}
	}
	for _, s := range srcs {
		e.CloseStream(s)
	}
	if err := e.Wait(); err != nil {
		t.Errorf("engine failed: %v", err)
	}
	ctl.Stop()

	snap := e.Snapshot()
	var nodeRetunes uint64
	for _, ns := range snap.Nodes {
		nodeRetunes += ns.Retunes
	}
	batchRetunes, shardRetunes := ctl.Decisions()
	shardApplies := ctl.shardApplies.Load()
	if got := rows.Load(); got != uint64(per) {
		t.Errorf("join produced %d rows, want %d", got, per)
	}
	if k := snap.Node("k"); k == nil || k.LateTuples != 0 {
		t.Errorf("tuples delivered below a sink bound: %+v", k)
	}
	if batchRetunes+shardRetunes == 0 {
		t.Error("controller issued no retune")
	}
	if nodeRetunes+shardApplies == 0 {
		t.Error("no retune observably applied at a punctuation boundary")
	}
	t.Logf("%d rows, retunes batch=%d shard=%d, applied node=%d shard=%d, shard tuples %v",
		rows.Load(), batchRetunes, shardRetunes, nodeRetunes, shardApplies, e.ShardTuples())
}
