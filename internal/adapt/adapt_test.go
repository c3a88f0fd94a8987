package adapt

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/tuple"
)

func intSchema(name string) *tuple.Schema {
	return tuple.NewSchema(name, tuple.Field{Name: "v", Kind: tuple.IntKind}).WithTS(tuple.External)
}

// buildPipeline is a minimal src→sink engine; the source is the only node
// with out arcs, so it is the controller's single batch-tuning target.
func buildPipeline(t *testing.T, opts runtime.Options) (*runtime.Engine, *ops.Source, int, *atomic.Int64) {
	t.Helper()
	g := graph.New("adapt")
	src := ops.NewSource("src", intSchema("s"), 0)
	sid := g.AddNode(src)
	var got atomic.Int64
	g.AddNode(ops.NewSink("sink", func(tp *tuple.Tuple, _ tuple.Time) {
		if !tp.IsPunct() {
			got.Add(1)
		}
	}), sid)
	e, err := runtime.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, src, int(sid), &got
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDefaults(t *testing.T) {
	e, _, _, _ := buildPipeline(t, runtime.Options{})
	c := New(e, nil) // nil options → all defaults
	if c.Interval() != defaultInterval {
		t.Errorf("Interval = %v, want %v", c.Interval(), defaultInterval)
	}
	if c.minBatch != 1 || c.maxBatch != defaultMaxBatch {
		t.Errorf("batch bounds = [%d,%d]", c.minBatch, c.maxBatch)
	}
	if c.skew != 0.25 || c.cooldown != 20*c.interval {
		t.Errorf("skew=%v cooldown=%v", c.skew, c.cooldown)
	}
	if len(c.nodes) != 1 {
		t.Errorf("want 1 batch tuner (the source), got %d", len(c.nodes))
	}
	if c.Retunes() != 0 {
		t.Errorf("fresh controller reports %d retunes", c.Retunes())
	}
	c.Stop() // never started: must not hang
}

func TestBatchClimbIssuesAndApplies(t *testing.T) {
	tr := metrics.NewTracer(1024)
	e, src, sid, got := buildPipeline(t, runtime.Options{BatchSize: 8, Trace: tr})
	c := New(e, &Options{MaxBatch: 64})
	e.Start()

	ts := tuple.Time(1)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			e.Ingest(src, tuple.NewData(ts, tuple.Int(int64(ts))))
			ts++
		}
		e.Ingest(src, tuple.NewPunct(ts))
		ts++
	}

	want := int64(0)
	burst(100)
	want += 100
	waitFor(t, "first burst", func() bool { return got.Load() == want })
	c.Step() // primes the rate window: no decision yet
	if c.Retunes() != 0 {
		t.Fatalf("priming tick issued %d retunes", c.Retunes())
	}

	burst(100)
	want += 100
	waitFor(t, "second burst", func() bool { return got.Load() == want })
	c.Step() // first loaded tick: probes upward, 8 → 16
	if b, _ := c.Decisions(); b != 1 {
		t.Fatalf("loaded tick issued %d batch retunes, want 1", b)
	}
	if tr.Count(metrics.EvRetuneBatch) != 1 {
		t.Fatal("no EvRetuneBatch trace event")
	}

	// The decision applies at the next punctuation boundary, not before.
	burst(100)
	want += 100
	waitFor(t, "retune to apply", func() bool { return e.NodeBatchSize(sid) == 16 })
	waitFor(t, "third burst", func() bool { return got.Load() == want })

	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if tr.Count(metrics.EvRetuneApplied) == 0 {
		t.Error("no EvRetuneApplied trace event")
	}
}

func TestBatchClampAndIdleReset(t *testing.T) {
	e, src, sid, got := buildPipeline(t, runtime.Options{BatchSize: 8})
	c := New(e, &Options{MinBatch: 4, MaxBatch: 16})
	e.Start()

	ts := tuple.Time(1)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			e.Ingest(src, tuple.NewData(ts, tuple.Int(int64(ts))))
			ts++
		}
		e.Ingest(src, tuple.NewPunct(ts))
		ts++
	}

	want := int64(0)
	for i := 0; i < 12; i++ {
		burst(50)
		want += 50
		waitFor(t, "burst", func() bool { return got.Load() == want })
		c.Step()
		if bs := e.NodeBatchSize(sid); bs < 4 || bs > 16 {
			t.Fatalf("applied batch size %d escaped [4,16]", bs)
		}
	}
	if c.Retunes() == 0 {
		t.Fatal("no retunes over 12 loaded ticks")
	}

	// Idle ticks must not issue decisions (nothing to learn).
	before := c.Retunes()
	tuner := c.nodes[0]
	c.Step()
	c.Step()
	if c.Retunes() != before {
		t.Errorf("idle ticks issued %d retunes", c.Retunes()-before)
	}
	if tuner.dir != 0 {
		t.Error("idle tick did not reset climb direction")
	}
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyGuardShrinks(t *testing.T) {
	lat := metrics.NewReservoir(256)
	for i := 0; i < 100; i++ {
		lat.Observe(5000) // 5ms observed vs 1ms target: guard trips
	}
	tr := metrics.NewTracer(64)
	e, src, _, got := buildPipeline(t, runtime.Options{BatchSize: 8, Trace: tr})
	c := New(e, &Options{
		TargetP95: time.Millisecond,
		Latency:   lat,
	})
	e.Start()

	ts := tuple.Time(1)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			e.Ingest(src, tuple.NewData(ts, tuple.Int(int64(ts))))
			ts++
		}
		e.Ingest(src, tuple.NewPunct(ts))
		ts++
	}
	burst(100)
	waitFor(t, "first burst", func() bool { return got.Load() == 100 })
	c.Step() // primes
	burst(100)
	waitFor(t, "second burst", func() bool { return got.Load() == 200 })
	c.Step() // guard trips: shrink 8 → 4 despite throughput
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	evs := tr.Recent(16)
	found := false
	for _, ev := range evs {
		if ev.Kind == metrics.EvRetuneBatch {
			found = true
			if ev.Value != 4 {
				t.Errorf("guard tick retuned to %d, want 4", ev.Value)
			}
		}
	}
	if !found {
		t.Fatal("latency guard issued no batch retune")
	}
}

// splitDriver runs a standalone splitter the way the engine would: tuples
// in, per-shard arcs out.
type splitDriver struct {
	s    *ops.Split
	in   *buffer.Queue
	ctx  *ops.Ctx
	arcs [][]*tuple.Tuple
}

func newSplitDriver(s *ops.Split) *splitDriver {
	d := &splitDriver{s: s, in: buffer.New("in"), arcs: make([][]*tuple.Tuple, s.Shards())}
	d.ctx = &ops.Ctx{
		Ins:    []*buffer.Queue{d.in},
		EmitTo: func(i int, t *tuple.Tuple) { d.arcs[i] = append(d.arcs[i], t) },
		Now:    func() tuple.Time { return 0 },
	}
	return d
}

func (d *splitDriver) run() {
	for d.s.More(d.ctx) {
		d.s.Exec(d.ctx)
	}
}

// hotKeys returns distinct int keys whose buckets all map to shard 0 under
// the canonical bucket%shards assignment, each in a distinct bucket.
func hotKeys(shards, n int) []int64 {
	var keys []int64
	seen := map[uint64]bool{}
	for k := int64(0); len(keys) < n; k++ {
		b := tuple.Int(k).Hash() % ops.SplitBuckets
		if int(b)%shards == 0 && !seen[b] {
			seen[b] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func TestShardRebalanceAtBarrier(t *testing.T) {
	tr := metrics.NewTracer(256)
	e, _, _, _ := buildPipeline(t, runtime.Options{Trace: tr})
	c := New(e, &Options{NoBatchTune: true})

	s := ops.NewSplit("sp", nil, 2, 0)
	d := newSplitDriver(s)
	gt := c.watchGroup(runtime.ShardGroup{Name: "agg", Shards: 2, Splitters: []*ops.Split{s}})

	// Everything lands on shard 0: four hot buckets, all canonical-mapped
	// to shard 0, loaded equally.
	keys := hotKeys(2, 4)
	ts := tuple.Time(1)
	for round := 0; round < 50; round++ {
		for _, k := range keys {
			d.in.Push(tuple.NewData(ts, tuple.Int(k)))
			ts++
		}
	}
	d.run()

	c.Step()
	if _, sh := c.Decisions(); sh != 1 {
		t.Fatalf("skewed load issued %d shard retunes, want 1", sh)
	}
	if !s.RetargetPending() {
		t.Fatal("no retarget pending after the rebalance decision")
	}
	if tr.Count(metrics.EvRetuneShards) != 1 {
		t.Fatal("no EvRetuneShards trace event")
	}

	// While the barrier is in flight, no second decision may stack.
	c.Step()
	if _, sh := c.Decisions(); sh != 1 {
		t.Fatal("controller stacked a retarget on a pending barrier")
	}

	// The punctuation crossing the barrier promotes the new table...
	d.in.Push(tuple.NewPunct(ts + 1000))
	d.run()
	if s.RetargetPending() {
		t.Fatal("retarget still pending after barrier punctuation")
	}
	if s.AssignVersion() != 1 {
		t.Fatalf("AssignVersion = %d, want 1", s.AssignVersion())
	}
	if c.shardApplies.Load() != 1 {
		t.Fatalf("shardApplies = %d, want 1", c.shardApplies.Load())
	}
	if tr.Count(metrics.EvRetuneApplied) != 1 {
		t.Fatal("no EvRetuneApplied trace event from the OnApply hook")
	}

	// ...and the promoted assignment actually spreads the hot buckets.
	assign := s.Assignment()
	loads := make([]uint64, 2)
	for b, w := range gt.win {
		loads[assign[b]] += w
	}
	if skew := partition.Skew(loads); skew > 0.25 {
		t.Errorf("post-rebalance skew %.3f over the window still above threshold", skew)
	}

	// Cooldown: fresh skew right after a rebalance must wait.
	for round := 0; round < 50; round++ {
		for _, k := range keys {
			d.in.Push(tuple.NewData(ts, tuple.Int(k)))
			ts++
		}
	}
	d.run()
	c.Step()
	if _, sh := c.Decisions(); sh != 1 {
		t.Fatal("rebalance issued inside the cooldown window")
	}
}

func TestStartStopLoop(t *testing.T) {
	e, src, _, got := buildPipeline(t, runtime.Options{BatchSize: 8})
	c := New(e, &Options{Interval: time.Millisecond, MaxBatch: 64})
	e.Start()
	c.Start()
	c.Start() // idempotent

	ts := tuple.Time(1)
	deadline := time.Now().Add(2 * time.Second)
	for c.Retunes() == 0 && time.Now().Before(deadline) {
		for i := 0; i < 50; i++ {
			e.Ingest(src, tuple.NewData(ts, tuple.Int(int64(ts))))
			ts++
		}
		e.Ingest(src, tuple.NewPunct(ts))
		ts++
		time.Sleep(2 * time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
	if c.Retunes() == 0 {
		t.Fatal("ticker loop issued no retunes under sustained load")
	}
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = got
}
