package runtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tuple"
	"repro/internal/window"
)

// collector is a concurrency-safe sink callback.
type collector struct {
	mu  sync.Mutex
	out []*tuple.Tuple
	at  []tuple.Time
}

func (c *collector) add(t *tuple.Tuple, now tuple.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out, t)
	c.at = append(c.at, now)
}

func (c *collector) snapshot() []*tuple.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*tuple.Tuple(nil), c.out...)
}

func intSchema(name string, ts tuple.TSKind) *tuple.Schema {
	return tuple.NewSchema(name, tuple.Field{Name: "v", Kind: tuple.IntKind}).WithTS(ts)
}

func TestRuntimeSimplePath(t *testing.T) {
	g := graph.New("p")
	sch := intSchema("s", tuple.Internal)
	src := ops.NewSource("src", sch, 0)
	n := g.AddNode(src)
	f := g.AddNode(ops.NewSelect("sel", sch, func(tp *tuple.Tuple) bool {
		return tp.Vals[0].AsInt()%2 == 0
	}), n)
	col := &collector{}
	g.AddNode(ops.NewSink("sink", col.add), f)

	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < 10; i++ {
		e.Ingest(src, tuple.NewData(0, tuple.Int(int64(i))))
	}
	e.CloseStream(src)
	e.Wait()
	got := col.snapshot()
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	prev := tuple.MinTime
	for _, tp := range got {
		if tp.Ts < prev {
			t.Fatal("output disordered")
		}
		prev = tp.Ts
	}
}

func TestRuntimeRejectsInvalidGraph(t *testing.T) {
	if _, err := New(graph.New("empty"), Options{}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func buildUnion(t *testing.T, mode ops.IWPMode, ts tuple.TSKind) (*graph.Graph, *ops.Source, *ops.Source, *collector) {
	t.Helper()
	g := graph.New("u")
	s1 := ops.NewSource("s1", intSchema("s1", ts), 0)
	s2 := ops.NewSource("s2", intSchema("s2", ts), 0)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	u := g.AddNode(ops.NewUnion("u", nil, 2, mode), a, b)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), u)
	return g, s1, s2, col
}

func TestRuntimeUnionIdleWaitsWithoutETS(t *testing.T) {
	g, s1, _, col := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: false})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(1)))
	time.Sleep(50 * time.Millisecond)
	if n := len(col.snapshot()); n != 0 {
		t.Fatalf("tuple delivered without a bound on stream 2 (%d)", n)
	}
}

func TestRuntimeOnDemandETSReleases(t *testing.T) {
	g, s1, _, col := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(1)))
	deadline := time.Now().Add(5 * time.Second)
	for len(col.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("on-demand ETS never released the tuple")
		}
		time.Sleep(time.Millisecond)
	}
	if e.ETSGenerated() == 0 {
		t.Error("no ETS generated")
	}
	// Latency should be small (sub-50ms wall time even under CI load).
	col.mu.Lock()
	lat := col.at[0] - col.out[0].Ts
	col.mu.Unlock()
	if lat > tuple.FromDuration(250*time.Millisecond) {
		t.Errorf("latency = %v, expected near-immediate delivery", lat)
	}
}

func TestRuntimeUnionMergesOrdered(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
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
			t.Fatal("merged output disordered")
		}
		prev = tp.Ts
	}
}

func TestRuntimeLatentUnion(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.LatentMode, tuple.Latent)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < 10; i++ {
		e.Ingest(s1, tuple.NewData(0, tuple.Int(int64(i))))
	}
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()
	if n := len(col.snapshot()); n != 10 {
		t.Fatalf("latent union delivered %d, want 10", n)
	}
}

func TestRuntimeJoin(t *testing.T) {
	g := graph.New("j")
	s1 := ops.NewSource("s1", intSchema("s1", tuple.Internal), 0)
	s2 := ops.NewSource("s2", intSchema("s2", tuple.Internal), 0)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	j := g.AddNode(ops.NewWindowJoin("j", nil, window.TimeWindow(tuple.Minute),
		ops.EquiJoin(0, 0), ops.TSM), a, b)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), j)

	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < 20; i++ {
		e.Ingest(s1, tuple.NewData(0, tuple.Int(int64(i))))
		e.Ingest(s2, tuple.NewData(0, tuple.Int(int64(i))))
	}
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()
	// Each key appears once per side within one window: 20 matches.
	if n := len(col.snapshot()); n != 20 {
		t.Fatalf("join delivered %d, want 20", n)
	}
}

func TestRuntimeStopTerminates(t *testing.T) {
	g, s1, _, _ := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(1)))
	done := make(chan struct{})
	go func() {
		e.Stop()
		e.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate the engine")
	}
	e.Stop() // idempotent
}

func TestRuntimeThroughput(t *testing.T) {
	// A modest load test: 2×5000 tuples through union with on-demand ETS.
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	const n = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			e.Ingest(s1, tuple.NewData(0, tuple.Int(int64(i))))
		}
		e.CloseStream(s1)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			e.Ingest(s2, tuple.NewData(0, tuple.Int(int64(i))))
		}
		e.CloseStream(s2)
	}()
	wg.Wait()
	e.Wait()
	if got := len(col.snapshot()); got != 2*n {
		t.Fatalf("delivered %d, want %d", got, 2*n)
	}
}

func TestRuntimeAggregatePipeline(t *testing.T) {
	// source → aggregate → sink on the concurrent engine; windows flush
	// via data bounds and the final EOS.
	g := graph.New("agg")
	s1 := ops.NewSource("s1", intSchema("s1", tuple.External), 0)
	a := g.AddNode(s1)
	agg := ops.NewAggregate("agg", nil, 10, -1, ops.AggSpec{Fn: ops.Count})
	an := g.AddNode(agg, a)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), an)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for _, ts := range []tuple.Time{1, 5, 15, 25} {
		e.Ingest(s1, tuple.NewData(ts, tuple.Int(1)))
	}
	e.CloseStream(s1)
	e.Wait()
	rows := col.snapshot()
	if len(rows) != 3 {
		t.Fatalf("windows = %v", rows)
	}
	if rows[0].Ts != 10 || rows[0].Vals[0].AsInt() != 2 {
		t.Fatalf("first window = %v", rows[0])
	}
}

func TestRuntimeReorderPipeline(t *testing.T) {
	// Disordered external input through a reorder stage feeding a union.
	g := graph.New("re")
	s1 := ops.NewSource("s1", intSchema("s1", tuple.External), 0)
	s2 := ops.NewSource("s2", intSchema("s2", tuple.External), 0)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	r := g.AddNode(ops.NewReorder("r", nil, 100), a)
	u := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), r, b)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), u)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for _, ts := range []tuple.Time{50, 10, 80, 40, 200} {
		e.Ingest(s1, tuple.NewData(ts, tuple.Int(int64(ts))))
	}
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()
	got := col.snapshot()
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5", len(got))
	}
	prev := tuple.MinTime
	for _, tp := range got {
		if tp.Ts < prev {
			t.Fatalf("disordered output: %v", got)
		}
		prev = tp.Ts
	}
}

func TestRuntimeLatentJoinEOS(t *testing.T) {
	g := graph.New("lj")
	s1 := ops.NewSource("s1", intSchema("s1", tuple.Latent), 0)
	s2 := ops.NewSource("s2", intSchema("s2", tuple.Latent), 0)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	j := g.AddNode(ops.NewWindowJoin("j", nil, window.RowWindow(100),
		ops.EquiJoin(0, 0), ops.LatentMode), a, b)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), j)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(7)))
	e.Ingest(s2, tuple.NewData(0, tuple.Int(7)))
	e.CloseStream(s1)
	e.CloseStream(s2)
	done := make(chan struct{})
	go func() { e.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("latent join pipeline failed to terminate")
	}
	if n := len(col.snapshot()); n != 1 {
		t.Fatalf("latent join delivered %d, want 1", n)
	}
}

func TestRuntimeIngestBatch(t *testing.T) {
	g := graph.New("ib")
	sch := intSchema("s", tuple.Internal)
	src := ops.NewSource("src", sch, 0)
	n := g.AddNode(src)
	col := &collector{}
	g.AddNode(ops.NewSink("sink", col.add), n)

	e, err := New(g, Options{BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	var batch []*tuple.Tuple
	for i := 0; i < 1000; i++ {
		batch = append(batch, tuple.NewData(0, tuple.Int(int64(i))))
		if len(batch) == 100 {
			e.IngestBatch(src, batch)
			batch = batch[:0]
		}
	}
	e.IngestBatch(src, nil) // no-op
	e.CloseStream(src)
	e.Wait()
	got := col.snapshot()
	if len(got) != 1000 {
		t.Fatalf("delivered %d, want 1000", len(got))
	}
	for i, tp := range got {
		if tp.Vals[0].AsInt() != int64(i) {
			t.Fatalf("tuple %d out of order: %v", i, tp)
		}
	}
	if e.BatchesSent() == 0 || e.TuplesSent() != 1001 { // 1000 data + EOS
		t.Fatalf("batch metrics: batches=%d tuples=%d", e.BatchesSent(), e.TuplesSent())
	}
	if factor := float64(e.TuplesSent()) / float64(e.BatchesSent()); factor < 2 {
		t.Errorf("batching factor %.1f; bulk ingest should amortize sends", factor)
	}
}

// TestRuntimeBatchingPreservesPunctuationLatency is the latency-preservation
// regression test for the batched data plane: an ETS/punctuation tuple must
// reach the sink immediately — flushed out of any partial batch — rather
// than waiting for the batch to fill or for the stale-batch delay to expire.
// With BatchSize larger than the whole input and a delay of a minute, any
// delivery within the deadline proves flush-on-punctuation works.
func TestRuntimeBatchingPreservesPunctuationLatency(t *testing.T) {
	g, s1, _, col := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{
		OnDemandETS: true,
		BatchSize:   1 << 16, // never fills
	})
	if err != nil {
		t.Fatal(err)
	}
	e.maxDelay = time.Minute
	e.Start()
	defer e.Stop()

	start := time.Now()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(1)))
	// The tuple can only reach the sink if (a) the source's batch flushed
	// without filling and (b) the on-demand ETS for the sparse stream
	// flushed through the union without filling its batch either.
	deadline := time.Now().Add(5 * time.Second)
	for len(col.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batching delayed punctuation: tuple never reached the sink")
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("delivery took %v; punctuation must flush immediately", elapsed)
	}
	if e.ETSGenerated() == 0 {
		t.Error("no ETS generated")
	}
}

// TestRuntimeBatchedEOSDrains covers EOS riding in a partially-filled batch:
// termination must not wait for batch fill or delay expiry. One source is
// closed by CloseStream, the other by an EOS at the end of an IngestBatch,
// which must terminate it the same way.
func TestRuntimeBatchedEOSDrains(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{
		OnDemandETS: true,
		BatchSize:   1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.maxDelay = time.Minute
	e.Start()
	var raws []*tuple.Tuple
	for i := 0; i < 17; i++ { // deliberately not a multiple of any batch size
		e.Ingest(s1, tuple.NewData(0, tuple.Int(int64(i))))
		raws = append(raws, tuple.NewData(0, tuple.Int(int64(i))))
	}
	e.CloseStream(s1)
	e.IngestBatch(s2, append(raws, tuple.EOS()))
	done := make(chan struct{})
	go func() { e.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batched pipeline failed to drain on EOS")
	}
	if n := len(col.snapshot()); n != 34 {
		t.Fatalf("delivered %d, want 34", n)
	}
}

// TestRuntimeBatchSizesAgree runs the union workload across batch sizes and
// checks the results are identical — batching is a transport optimization,
// not a semantic change.
func TestRuntimeBatchSizesAgree(t *testing.T) {
	run := func(batch int) int {
		g, s1, s2, col := buildUnion(t, ops.TSM, tuple.Internal)
		e, err := New(g, Options{
			OnDemandETS: true,
			BatchSize:   batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		var raws []*tuple.Tuple
		for i := 0; i < 500; i++ {
			raws = append(raws, tuple.NewData(0, tuple.Int(int64(i))))
			if len(raws) == 50 {
				e.IngestBatch(s1, raws[:25])
				e.IngestBatch(s2, raws[25:])
				raws = raws[:0]
			}
		}
		e.CloseStream(s1)
		e.CloseStream(s2)
		e.Wait()
		return len(col.snapshot())
	}
	want := run(1)
	for _, bs := range []int{2, 64, 4096} {
		if got := run(bs); got != want {
			t.Errorf("BatchSize=%d delivered %d, BatchSize=1 delivered %d", bs, got, want)
		}
	}
}

// TestRuntimeFanOutDeliversOnEveryArc: a node with two out arcs hands every
// tuple to both consumers.
func TestRuntimeFanOutDeliversOnEveryArc(t *testing.T) {
	g := graph.New("fan")
	sch := intSchema("s", tuple.Internal)
	src := ops.NewSource("src", sch, 0)
	n := g.AddNode(src)
	c1 := &collector{}
	c2 := &collector{}
	g.AddNode(ops.NewSink("k1", c1.add), n)
	g.AddNode(ops.NewSink("k2", c2.add), n)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < 10; i++ {
		e.Ingest(src, tuple.NewData(0, tuple.Int(int64(i))))
	}
	e.CloseStream(src)
	e.Wait()
	if len(c1.snapshot()) != 10 || len(c2.snapshot()) != 10 {
		t.Fatalf("fan-out delivered %d/%d, want 10/10", len(c1.snapshot()), len(c2.snapshot()))
	}
}

func TestRuntimeDemandForwardsThroughInteriorNodes(t *testing.T) {
	// union ← select ← source on the sparse side: the demand signal must
	// be forwarded through the interior select to reach the source.
	g := graph.New("fwd")
	s1 := ops.NewSource("s1", intSchema("s1", tuple.Internal), 0)
	s2 := ops.NewSource("s2", intSchema("s2", tuple.Internal), 0)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	sel := g.AddNode(ops.NewSelect("sel", nil, func(*tuple.Tuple) bool { return true }), b)
	u := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), a, sel)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), u)

	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(1)))
	deadline := time.Now().Add(5 * time.Second)
	for len(col.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("demand never reached the source through the select")
		}
		time.Sleep(time.Millisecond)
	}
	if e.ETSGenerated() == 0 {
		t.Error("no ETS generated")
	}
}
