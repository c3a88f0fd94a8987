package runtime

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tuple"
	"repro/internal/window"
)

// A sharded TSM union must deliver the same merged, timestamp-ordered stream
// as the unsharded one, and the engine must expose the shard plan and the
// per-shard routing rollup.
func TestRuntimeShardedUnionOrdered(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e.ShardPlan() == nil || e.ShardPlan().Shards != 4 {
		t.Fatalf("shard plan = %v", e.ShardPlan())
	}
	e.Start()
	for i := 0; i < 50; i++ {
		e.Ingest(s1, tuple.NewData(0, tuple.Int(int64(i))))
		e.Ingest(s2, tuple.NewData(0, tuple.Int(int64(100+i))))
	}
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()
	got := col.snapshot()
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100", len(got))
	}
	prev := tuple.MinTime
	for _, tp := range got {
		if tp.Ts < prev {
			t.Fatal("sharded merged output disordered")
		}
		prev = tp.Ts
	}
	shard := e.ShardTuples()
	if len(shard) != 4 {
		t.Fatalf("ShardTuples = %v", shard)
	}
	var total uint64
	for _, c := range shard {
		total += c
	}
	if total != 100 {
		t.Fatalf("routed %d data tuples across shards, want 100 (%v)", total, shard)
	}
}

// buildShardJoin assembles sources -> equi join -> sink with external
// timestamps, the workload shape the shard bench uses.
func buildShardJoin(cb func(*tuple.Tuple, tuple.Time)) (*graph.Graph, *ops.Source, *ops.Source) {
	sch := tuple.NewSchema("s",
		tuple.Field{Name: "key", Kind: tuple.IntKind},
		tuple.Field{Name: "seq", Kind: tuple.IntKind},
	).WithTS(tuple.External)
	g := graph.New("jq")
	s1 := ops.NewSource("s1", sch, 0)
	s2 := ops.NewSource("s2", sch, 0)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	j := g.AddNode(ops.NewEquiWindowJoin("j", nil,
		window.TimeWindow(1<<30), window.TimeWindow(1<<30), 0, 0, ops.TSM), a, b)
	g.AddNode(ops.NewSink("k", cb), j)
	return g, s1, s2
}

func runShardJoin(t *testing.T, shards int) []string {
	t.Helper()
	col := &collector{}
	g, s1, s2 := buildShardJoin(col.add)
	e, err := New(g, Options{OnDemandETS: true, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < 300; i++ {
		key := tuple.Int(int64(i % 16))
		e.Ingest(s1, tuple.NewData(tuple.Time(2*i), key, tuple.Int(int64(i))))
		e.Ingest(s2, tuple.NewData(tuple.Time(2*i+1), key, tuple.Int(int64(i))))
	}
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()
	var rows []string
	for _, tp := range col.snapshot() {
		rows = append(rows, fmt.Sprintf("%v|%v", tp.Ts, tp.Vals))
	}
	sort.Strings(rows)
	return rows
}

// The tentpole equivalence property on the concurrent engine: sharded
// execution must produce exactly the unsharded join output.
func TestRuntimeShardedJoinMatchesUnsharded(t *testing.T) {
	want := runShardJoin(t, 0)
	if len(want) == 0 {
		t.Fatal("unsharded join produced nothing")
	}
	for _, p := range []int{2, 4} {
		got := runShardJoin(t, p)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d rows, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: row %d differs: %s vs %s", p, i, got[i], want[i])
			}
		}
	}
}

// Regression for sharded idle-waiting (the demand fan-out fix): a single
// tuple entering one shard of a partitioned union must still be released
// promptly — the starving shard's demand has to reach *both* sources (via
// both splitters), and the resulting ETS broadcast has to advance every
// other shard so the min-watermark merge lets the tuple through.
func TestRuntimeShardedIdleWaitingReleases(t *testing.T) {
	g, s1, _, col := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(7)))
	deadline := time.Now().Add(5 * time.Second)
	for len(col.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sharded idle-waiting: tuple never released")
		}
		time.Sleep(time.Millisecond)
	}
	if e.ETSGenerated() == 0 {
		t.Error("no ETS generated")
	}
	col.mu.Lock()
	lat := col.at[0] - col.out[0].Ts
	col.mu.Unlock()
	if lat > tuple.FromDuration(250*time.Millisecond) {
		t.Errorf("sharded release latency = %v, expected near-immediate", lat)
	}
}

// A sharded grouped aggregate must produce the unsharded result rows: each
// group's accumulators live wholly in one shard.
func TestRuntimeShardedAggregate(t *testing.T) {
	build := func(shards int) []string {
		sch := tuple.NewSchema("s",
			tuple.Field{Name: "g", Kind: tuple.IntKind},
			tuple.Field{Name: "v", Kind: tuple.IntKind},
		).WithTS(tuple.External)
		g := graph.New("agg")
		// δ covers the whole virtual-timestamp horizon: the wall clock runs
		// far ahead of the driven timestamps, and an over-estimated ETS
		// would close windows early, making the row set timing-dependent
		// (the join tests keep δ = 0 to stress exactly that late path).
		src := ops.NewSource("s", sch, 1<<40)
		a := g.AddNode(src)
		ag := g.AddNode(ops.NewAggregate("a", nil, 100, 0,
			ops.AggSpec{Fn: ops.Count}, ops.AggSpec{Fn: ops.Sum, Col: 1}), a)
		col := &collector{}
		g.AddNode(ops.NewSink("k", col.add), ag)
		e, err := New(g, Options{OnDemandETS: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		for i := 0; i < 400; i++ {
			e.Ingest(src, tuple.NewData(tuple.Time(i),
				tuple.Int(int64(i%8)), tuple.Int(int64(i))))
		}
		e.CloseStream(src)
		e.Wait()
		var rows []string
		for _, tp := range col.snapshot() {
			rows = append(rows, fmt.Sprintf("%v|%v", tp.Ts, tp.Vals))
		}
		sort.Strings(rows)
		return rows
	}
	want := build(0)
	if len(want) == 0 {
		t.Fatal("unsharded aggregate produced nothing")
	}
	got := build(4)
	if len(got) != len(want) {
		t.Fatalf("sharded aggregate: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
		}
	}
}
