package runtime

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// buildCkptGraph builds s1,s2 → union(TSM) → tumbling count(10) → sink: one
// aligned multi-input operator plus a blocking stateful one, the two shapes
// the barrier protocol has to get right.
func buildCkptGraph() (*graph.Graph, *ops.Source, *ops.Source, *ops.Sink, *collector) {
	return buildCkptGraphDelta(0)
}

// buildCkptGraphDelta is buildCkptGraph with external skew bound delta.
func buildCkptGraphDelta(delta tuple.Time) (*graph.Graph, *ops.Source, *ops.Source, *ops.Sink, *collector) {
	g := graph.New("ck")
	sch := intSchema("s", tuple.External)
	s1 := ops.NewSource("s1", sch, delta)
	s2 := ops.NewSource("s2", sch, delta)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	u := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), a, b)
	an := g.AddNode(ops.NewAggregate("agg", nil, 10, -1, ops.AggSpec{Fn: ops.Count}), u)
	col := &collector{}
	sink := ops.NewSink("k", col.add)
	g.AddNode(sink, an)
	return g, s1, s2, sink, col
}

func feedRange(e *Engine, s *ops.Source, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.Ingest(s, tuple.NewData(tuple.Time(i), tuple.Int(int64(i))))
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	// The feed honours its declared skew δ = 0: the clock never runs ahead
	// of the timestamps fed, so no ETS (lastTs + elapsed − δ) promises past
	// the next tuple and nothing after the cut arrives late. The clock holds
	// at 10 while 1..10 are fed and taken and the cut is armed just above
	// them, at 11, then moves to 11, the next timestamp, so the idle sources
	// reach it.
	clk := &manualClock{}
	clk.set(10)
	g, s1, s2, sink, _ := buildCkptGraph()
	e, err := New(g, Options{OnDemandETS: true, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feedRange(e, s1, 1, 11)
	feedRange(e, s2, 1, 11)
	for _, n := range e.srcNodes {
		for deadline := time.Now().Add(10 * time.Second); n.inlet.len() > 0; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("source %s never took its feed", n.name)
			}
		}
	}

	var snap *ckpt.Snapshot
	done := make(chan error, 1)
	go func() {
		var err error
		snap, err = e.Checkpoint(1, 10*time.Second)
		done <- err
	}()
	for _, s := range []*ops.Source{s1, s2} {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if _, at, ok := s.ArmedCut(); ok {
				if at != 11 {
					t.Fatalf("cut armed at %d, want 11: just above the feed", at)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("source %s never armed the cut", s.Name())
			}
		}
	}
	clk.set(11)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if snap.ID != 1 {
		t.Fatalf("snapshot id %d, want 1", snap.ID)
	}
	for _, name := range []string{"s1", "s2", "u", "agg", "k"} {
		if snap.Segment(name) == nil {
			t.Fatalf("snapshot missing segment %q (have %d segments)", name, len(snap.Segments))
		}
	}

	// Finish the original run.
	feedRange(e, s1, 11, 21)
	feedRange(e, s2, 11, 21)
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()
	origReceived := sink.Received()
	if origReceived == 0 {
		t.Fatal("original run produced no output")
	}

	// Restore into an identical fresh graph and replay only the
	// post-checkpoint input; the restored run must converge to the same
	// delivered-row count.
	g2, r1, r2, sink2, _ := buildCkptGraph()
	e2, err := New(g2, Options{OnDemandETS: true, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := r1.Seq(); got != 10 {
		t.Fatalf("restored s1 seq %d, want 10 (the barrier cut)", got)
	}
	if got := r2.Seq(); got != 10 {
		t.Fatalf("restored s2 seq %d, want 10", got)
	}
	e2.Start()
	feedRange(e2, r1, 11, 21)
	feedRange(e2, r2, 11, 21)
	e2.CloseStream(r1)
	e2.CloseStream(r2)
	e2.Wait()
	if got := sink2.Received(); got != origReceived {
		t.Fatalf("restored run delivered %d rows, original %d", got, origReceived)
	}
	if late := e.Snapshot().LateTuples + e2.Snapshot().LateTuples; late != 0 {
		t.Fatalf("%d tuples arrived late: the clock ran ahead of the feed", late)
	}
}

func TestCheckpointSerializesAndRepeats(t *testing.T) {
	g, s1, s2, _, _ := buildCkptGraph()
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	for id := uint64(1); id <= 3; id++ {
		feedRange(e, s1, int(id)*10, int(id)*10+5)
		feedRange(e, s2, int(id)*10, int(id)*10+5)
		snap, err := e.Checkpoint(id, 10*time.Second)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", id, err)
		}
		if snap.ID != id {
			t.Fatalf("snapshot id %d, want %d", snap.ID, id)
		}
	}
}

func TestCheckpointRejectsUnsupported(t *testing.T) {
	g, _, _, _ := buildUnion(t, ops.Basic, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	if _, err := e.Checkpoint(1, time.Second); !errors.Is(err, ErrCkptUnsupported) {
		t.Fatalf("Basic-mode union accepted for checkpoint: %v", err)
	}
}

func TestCheckpointRequiresStartAndNonzeroID(t *testing.T) {
	g, _, _, _, _ := buildCkptGraph()
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(1, time.Second); err == nil {
		t.Fatal("checkpoint before Start accepted")
	}
	e.Start()
	defer e.Stop()
	if _, err := e.Checkpoint(0, time.Second); err == nil {
		t.Fatal("checkpoint id 0 accepted")
	}
}

func TestRestoreRejectsMismatchAndRunning(t *testing.T) {
	g, s1, s2, _, _ := buildCkptGraph()
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feedRange(e, s1, 1, 6)
	feedRange(e, s2, 1, 6)
	snap, err := e.Checkpoint(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()

	// A different graph shape must be rejected wholesale.
	g2, _, _, col := buildUnion(t, ops.TSM, tuple.Internal)
	e2, err := New(g2, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = col
	if err := e2.Restore(snap); err == nil {
		t.Fatal("restore into a mismatched graph accepted")
	}

	// Restore after Start must be rejected.
	g3, _, _, _, _ := buildCkptGraph()
	e3, err := New(g3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e3.Start()
	defer e3.Stop()
	if err := e3.Restore(snap); err == nil {
		t.Fatal("restore into a running engine accepted")
	}
}

// A checkpoint armed just before every source closes completes: EOS reaches
// any cut. The sources' skew bound outlasts the test, so nothing but EOS can
// carry them to the cut's timestamp.
func TestCheckpointAcrossClose(t *testing.T) {
	g, s1, s2, _, _ := buildCkptGraphDelta(tuple.Time(1) << 40)
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feedRange(e, s1, 1, 11)
	feedRange(e, s2, 1, 11)
	type result struct {
		snap *ckpt.Snapshot
		err  error
	}
	done := make(chan result, 1)
	go func() {
		snap, err := e.Checkpoint(1, 10*time.Second)
		done <- result{snap, err}
	}()
	waitFor(t, 10*time.Second, "both sources armed", func() bool {
		_, _, ok1 := s1.ArmedCut()
		_, _, ok2 := s2.ArmedCut()
		return ok1 && ok2
	})
	e.CloseStream(s1)
	e.CloseStream(s2)
	r := <-done
	if r.err != nil {
		t.Fatalf("checkpoint across close: %v", r.err)
	}
	if r.snap.Barrier != 11 {
		t.Fatalf("snapshot barrier %v, want 11: just above the sources' last tuple", r.snap.Barrier)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(2, time.Second); err == nil {
		t.Fatal("checkpoint of a drained engine accepted")
	}
}

// A source that already emitted past the cut refuses it: the checkpoint
// fails at once with no snapshot, and a later one, placed above the
// observed maximum as usual, succeeds.
func TestCheckpointRefusedBySourcePastCut(t *testing.T) {
	g, s1, s2, _, _ := buildCkptGraph()
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	feedRange(e, s1, 1, 11)
	feedRange(e, s2, 1, 11)
	waitFor(t, 10*time.Second, "both sources emitting their tuples", func() bool {
		return nodeSnap(e, "s1").TuplesOut >= 10 && nodeSnap(e, "s2").TuplesOut >= 10
	})
	place := e.cutAt
	e.cutAt = func(tuple.Time) tuple.Time { return 5 } // behind both sources' tuples
	snap, err := e.Checkpoint(1, 10*time.Second)
	if err == nil || snap != nil || !strings.Contains(err.Error(), "already emitted") {
		t.Fatalf("checkpoint behind the sources: snapshot %v, err %v; want a refusal", snap, err)
	}
	e.cutAt = place
	if snap, err := e.Checkpoint(2, 10*time.Second); err != nil || snap.Barrier <= 10 {
		t.Fatalf("checkpoint above the sources: snapshot %v, err %v; want one above 10", snap, err)
	}
}

// A source that was never fed reaches any cut at once: it has emitted no
// data, so the checkpoint does not wait for its first tuple.
func TestCheckpointWithNeverFedSource(t *testing.T) {
	g, s1, _, _, _ := buildCkptGraph()
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	feedRange(e, s1, 1, 11)
	snap, err := e.Checkpoint(1, 5*time.Second)
	if err != nil {
		t.Fatalf("checkpoint with a never-fed source: %v", err)
	}
	if snap.Barrier != 11 {
		t.Fatalf("snapshot barrier %v, want 11: just above the fed source's last tuple", snap.Barrier)
	}
}

// The first cut after a restore lands above the restored snapshot's cut:
// the restored state reaches up to that cut, and a cut below it would let
// the union take one input's barrier before the other input reaches it.
func TestCheckpointAfterRestoreCutsAboveSnapshot(t *testing.T) {
	g, s1, s2, _, _ := buildCkptGraph()
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	feedRange(e, s1, 1, 11)
	feedRange(e, s2, 1, 11)
	snap, err := e.Checkpoint(1, 10*time.Second)
	e.Stop()
	if err != nil {
		t.Fatal(err)
	}

	g2, _, _, _, _ := buildCkptGraph()
	e2, err := New(g2, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	e2.Start()
	defer e2.Stop()
	snap2, err := e2.Checkpoint(2, 10*time.Second)
	if err != nil {
		t.Fatalf("checkpoint after restore: %v", err)
	}
	if snap2.Barrier != snap.Barrier+1 {
		t.Fatalf("cut after restore at %v, want just above the restored snapshot's %v", snap2.Barrier, snap.Barrier)
	}
}
