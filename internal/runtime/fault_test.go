package runtime

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRuntimePanicRestartPreservesOrder injects deterministic panics into the
// union node mid-workload and requires the supervisor to restart it with no
// tuple loss and no ordering violation: restarts must be invisible to the
// stream semantics because all node state lives on the node, not the
// goroutine stack.
func TestRuntimePanicRestartPreservesOrder(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.Internal)
	// Every second probe: a node that did any work loops back to the probe at
	// least once more, so the union panics however few iterations a starved
	// scheduler lets it drain its input in.
	inj := fault.New(fault.Config{PanicEvery: 2, PanicNodes: []string{"u"}})
	e, err := New(g, Options{
		OnDemandETS: true,
		MaxRestarts: 1 << 20,
		Fault:       inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.backoff = 10 * time.Microsecond
	e.Start()
	const n = 2000
	var wg sync.WaitGroup
	for _, src := range []*ops.Source{s1, s2} {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				e.Ingest(src, tuple.NewData(0, tuple.Int(int64(i))))
			}
			e.CloseStream(src)
		}()
	}
	wg.Wait()
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	got := col.snapshot()
	if len(got) != 2*n {
		t.Fatalf("delivered %d, want %d", len(got), 2*n)
	}
	prev := tuple.MinTime
	for _, tp := range got {
		if tp.Ts < prev {
			t.Fatal("output disordered across restarts")
		}
		prev = tp.Ts
	}
	s := e.Snapshot()
	u := s.Node("u")
	if u == nil || u.Restarts == 0 || u.Panics == 0 {
		t.Fatalf("union was never restarted: %+v", u)
	}
	if u.Restarts != inj.Stats().Panics {
		t.Errorf("restarts=%d, injected panics=%d; every panic should restart",
			u.Restarts, inj.Stats().Panics)
	}
}

// TestRuntimeRestartBudgetFailsEngine crash-loops the sink with no restart
// budget: the engine must fail cleanly — errored Wait, every goroutine
// released — rather than deadlock the rest of the graph.
func TestRuntimeRestartBudgetFailsEngine(t *testing.T) {
	g, s1, _, _ := buildUnion(t, ops.TSM, tuple.Internal)
	inj := fault.New(fault.Config{PanicEvery: 1, PanicNodes: []string{"k"}})
	e, err := New(g, Options{MaxRestarts: -1, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(1)))
	done := make(chan error, 1)
	go func() { done <- e.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Wait returned nil after an exhausted restart budget")
		}
		if !strings.Contains(err.Error(), `"k"`) {
			t.Errorf("error does not name the failed node: %v", err)
		}
		if e.Err() == nil {
			t.Error("Err() nil after failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine deadlocked instead of failing")
	}
}

// TestRuntimeWatchdogForcesETS starves one union input with demand-driven ETS
// off: only the source-liveness watchdog can unblock the idle-waiting union,
// by forcing a bound into the silent source.
func TestRuntimeWatchdogForcesETS(t *testing.T) {
	g, s1, _, col := buildUnion(t, ops.TSM, tuple.Internal)
	tr := metrics.NewTracer(1024)
	e, err := New(g, Options{
		OnDemandETS:   false,
		SourceTimeout: 25 * time.Millisecond,
		Trace:         tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(1)))
	waitFor(t, 5*time.Second, "watchdog-forced delivery", func() bool {
		return len(col.snapshot()) >= 1
	})
	s := e.Snapshot()
	if s.ForcedETS == 0 {
		t.Fatal("engine ForcedETS = 0 after a forced release")
	}
	if n := s.Node("s2"); n == nil || n.ForcedETS == 0 {
		t.Fatalf("silent source s2 shows no forced ETS: %+v", n)
	}
	if tr.Count(metrics.EvETSForced) == 0 {
		t.Error("no EvETSForced event traced")
	}
}

// TestRuntimeDeadSourceReleasesAndRevives lets an external source that never
// produced a tuple (so no skew bound exists and no ETS can be forced) pass
// the dead threshold: the watchdog must close its stream so the union
// releases the live side's tuples, and a reappearing tuple must revive it.
func TestRuntimeDeadSourceReleasesAndRevives(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.External)
	tr := metrics.NewTracer(1024)
	e, err := New(g, Options{
		OnDemandETS:     false,
		SourceTimeout:   10 * time.Millisecond,
		SourceDeadAfter: 30 * time.Millisecond,
		Trace:           tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	e.Ingest(s1, tuple.NewData(100, tuple.Int(1)))
	waitFor(t, 5*time.Second, "dead-source EOS to release the union", func() bool {
		return len(col.snapshot()) >= 1
	})
	s := e.Snapshot()
	if n := s.Node("s2"); n == nil || !n.Dead {
		t.Fatalf("s2 not marked dead: %+v", n)
	}
	// s1 may also pass the dead threshold once its tuple is delivered, so
	// only a lower bound on the engine-level gauge is stable.
	if s.DeadSources < 1 {
		t.Fatalf("DeadSources = %d, want ≥ 1", s.DeadSources)
	}
	if tr.Count(metrics.EvSourceDead) == 0 {
		t.Error("no EvSourceDead event traced")
	}
	// Revival: the feed comes back.
	e.Ingest(s2, tuple.NewData(200, tuple.Int(2)))
	waitFor(t, 5*time.Second, "source revival", func() bool {
		s := e.Snapshot()
		n := s.Node("s2")
		return n != nil && n.Revived >= 1 && !n.Dead
	})
	if tr.Count(metrics.EvSourceRevive) == 0 {
		t.Error("no EvSourceRevive event traced")
	}
}

// TestRuntimeLateTuplesCounted builds a window where a watchdog-forced ETS
// overshoots a tuple still in flight: the external estimator promises
// lastTs + elapsed − δ, so a tuple older than that arriving after the forced
// bound is late and must be counted (per node and per engine), not silently
// absorbed.
func TestRuntimeLateTuplesCounted(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.External)
	tr := metrics.NewTracer(1024)
	e, err := New(g, Options{
		OnDemandETS:   false,
		SourceTimeout: 15 * time.Millisecond,
		Trace:         tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	// Seed both estimators, then idle the union on s2's silence.
	e.Ingest(s1, tuple.NewData(100, tuple.Int(1)))
	e.Ingest(s2, tuple.NewData(100, tuple.Int(2)))
	e.Ingest(s1, tuple.NewData(200, tuple.Int(3)))
	// The forced ETS for s2 will be ≈ 100 + elapsed-since-arrival (δ = 0),
	// far above 150 after a 15ms timeout. Wait for it, then deliver the
	// overshot tuple.
	waitFor(t, 5*time.Second, "forced ETS on the stalled source", func() bool {
		s := e.Snapshot()
		n := s.Node("s2")
		return n != nil && n.ForcedETS >= 1
	})
	e.Ingest(s2, tuple.NewData(150, tuple.Int(4)))
	waitFor(t, 5*time.Second, "late-tuple accounting", func() bool {
		return e.Snapshot().LateTuples >= 1
	})
	s := e.Snapshot()
	if n := s.Node("u"); n == nil || n.LateTuples == 0 {
		t.Fatalf("union shows no late tuples: %+v", n)
	}
	if tr.Count(metrics.EvLateTuple) == 0 {
		t.Error("no EvLateTuple event traced")
	}
	_ = col
}

// TestRuntimeLateIsPerArc: lateness is judged against the bound of the arc a
// tuple travels on. One union input's punctuation running ahead of the other
// input's data puts nothing out of order, so nothing may be flagged; a tuple
// below a bound already received on its own arc still is.
func TestRuntimeLateIsPerArc(t *testing.T) {
	g, s1, s2, col := buildUnion(t, ops.TSM, tuple.External)
	e, err := New(g, Options{OnDemandETS: false})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	arcWm := func(port int) tuple.Time {
		s := e.Snapshot()
		return s.Node("u").Arcs[port].Watermark
	}
	// Arc 0's bound runs far ahead of anything arc 1 will carry.
	e.Ingest(s1, tuple.NewData(100, tuple.Int(1)))
	e.Ingest(s1, tuple.NewPunct(1000))
	waitFor(t, 5*time.Second, "arc 0 bound at the union", func() bool { return arcWm(0) == 1000 })
	// In order on arc 1, all below arc 0's bound, in separate deliveries.
	e.Ingest(s2, tuple.NewData(200, tuple.Int(2)))
	e.Ingest(s2, tuple.NewData(300, tuple.Int(3)))
	e.Ingest(s2, tuple.NewPunct(400))
	waitFor(t, 5*time.Second, "union output", func() bool {
		return arcWm(1) == 400 && len(col.snapshot()) == 3
	})
	if s := e.Snapshot(); s.LateTuples != 0 {
		t.Fatalf("in-order arcs with skewed bounds flagged %d late tuples (union %d)",
			s.LateTuples, s.Node("u").LateTuples)
	}
	// Below arc 1's own bound: genuinely late.
	e.Ingest(s2, tuple.NewData(350, tuple.Int(4)))
	waitFor(t, 5*time.Second, "late tuple delivered", func() bool { return len(col.snapshot()) == 4 })
	if s := e.Snapshot(); s.Node("u").LateTuples != 1 {
		t.Fatalf("union counted %d late tuples, want 1", s.Node("u").LateTuples)
	}
}

// slowGraph builds src → slow select → sink, where every tuple costs the
// select a fixed sleep — an overload generator for queue-bound tests.
func slowGraph(t *testing.T, perTuple time.Duration) (*graph.Graph, *ops.Source, *collector) {
	t.Helper()
	g := graph.New("slow")
	sch := intSchema("s", tuple.Internal)
	src := ops.NewSource("src", sch, 0)
	a := g.AddNode(src)
	sel := g.AddNode(ops.NewSelect("sel", sch, func(*tuple.Tuple) bool {
		time.Sleep(perTuple)
		return true
	}), a)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), sel)
	return g, src, col
}

// TestRuntimeBackpressureBoundsQueue overloads a slow operator under the
// blocking policy: every tuple must still arrive, and the slow node's queue
// high-water mark must stay near MaxQueueLen instead of absorbing the whole
// input.
func TestRuntimeBackpressureBoundsQueue(t *testing.T) {
	g, src, col := slowGraph(t, 20*time.Microsecond)
	e, err := New(g, Options{MaxQueueLen: 32, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	const n = 1500
	for i := 0; i < n; i++ {
		e.Ingest(src, tuple.NewData(0, tuple.Int(int64(i))))
	}
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := len(col.snapshot()); got != n {
		t.Fatalf("backpressure lost tuples: delivered %d, want %d", got, n)
	}
	s := e.Snapshot()
	if s.TuplesShed != 0 {
		t.Fatalf("backpressure policy shed %d tuples", s.TuplesShed)
	}
	// Bound + one in-flight batch + punctuation slack.
	if hwm := s.Node("sel").QueueHWM; hwm > 32+8+8 {
		t.Fatalf("queue HWM %d escaped the bound 32", hwm)
	}
}

// TestRuntimeSheddingDropsOldest overloads the same graph under the shedding
// policy: delivered + shed must account for every tuple, some shedding must
// actually occur, and the survivors stay ordered.
func TestRuntimeSheddingDropsOldest(t *testing.T) {
	g, src, col := slowGraph(t, 50*time.Microsecond)
	tr := metrics.NewTracer(1024)
	e, err := New(g, Options{MaxQueueLen: 16, Shed: true, BatchSize: 64, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	const n = 2000
	var raws []*tuple.Tuple
	for i := 0; i < n; i++ {
		raws = append(raws, tuple.NewData(0, tuple.Int(int64(i))))
		if len(raws) == 100 {
			e.IngestBatch(src, raws)
			raws = raws[:0]
		}
	}
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	got := col.snapshot()
	s := e.Snapshot()
	if s.TuplesShed == 0 {
		t.Fatal("overload produced no shedding")
	}
	if uint64(len(got))+s.TuplesShed != n {
		t.Fatalf("delivered %d + shed %d ≠ ingested %d", len(got), s.TuplesShed, n)
	}
	prev := tuple.MinTime
	for _, tp := range got {
		if tp.Ts < prev {
			t.Fatal("shedding disordered the survivors")
		}
		prev = tp.Ts
	}
	if tr.Count(metrics.EvShed) == 0 {
		t.Error("no EvShed event traced")
	}
}

// TestRuntimeChaosDropTuples runs with a 100% source drop rate: every data
// tuple is lost at ingest, EOS still terminates the graph, and the injector
// accounts each loss.
func TestRuntimeChaosDropTuples(t *testing.T) {
	g := graph.New("drop")
	sch := intSchema("s", tuple.Internal)
	src := ops.NewSource("src", sch, 0)
	a := g.AddNode(src)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), a)
	inj := fault.New(fault.Config{DropProb: 1.0, DropNodes: []string{"src"}})
	e, err := New(g, Options{Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	const n = 100
	for i := 0; i < n; i++ {
		e.Ingest(src, tuple.NewData(0, tuple.Int(int64(i))))
	}
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := len(col.snapshot()); got != 0 {
		t.Fatalf("delivered %d tuples past a 100%% drop rate", got)
	}
	if drops := inj.Stats().Drops; drops != n {
		t.Fatalf("injector counted %d drops, want %d", drops, n)
	}
}

// TestRuntimeStopConcurrent is the Stop-idempotency regression test: Stop,
// Wait, and CloseStream racing from many goroutines must neither panic
// (double close) nor deadlock.
func TestRuntimeStopConcurrent(t *testing.T) {
	g, s1, s2, _ := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.Ingest(s1, tuple.NewData(0, tuple.Int(1)))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.Stop() }()
	}
	wg.Add(2)
	go func() { defer wg.Done(); e.CloseStream(s1) }()
	go func() { defer wg.Done(); e.CloseStream(s2) }()
	go func() { wg.Wait(); e.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Stop/Wait/CloseStream wedged")
	}
	if err := e.Err(); err != nil {
		t.Fatalf("Err after user Stop: %v", err)
	}
	e.Stop() // still idempotent after Wait
}
