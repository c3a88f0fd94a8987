package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// probeOp is a pass-through operator that tracks, from the operator's own
// point of view, how many data tuples it has emitted since its last emitted
// punctuation. It also reads its node's live batch size at the top of every
// Exec: the node applies a reconfiguration on this goroutine between two
// Execs, so a changed size is an apply, and sincePunct still holds what the
// previous Exec left. Nonzero there means the reconfiguration landed
// between a batch and its bounding punctuation — the exact violation the
// apply-at-punctuation protocol must make impossible.
type probeOp struct {
	name       string
	sincePunct int // node-goroutine owned

	batchSize func() int           // the node's live batch size; set before Start
	lastBatch int                  // the size the previous Exec saw
	onApply   func(sincePunct int) // called on each observed batch-size swap
}

func (p *probeOp) Name() string               { return p.name }
func (p *probeOp) NumInputs() int             { return 1 }
func (p *probeOp) OutSchema() *tuple.Schema   { return nil }
func (p *probeOp) More(ctx *ops.Ctx) bool     { return !ctx.Ins[0].Empty() }
func (p *probeOp) BlockingInput(*ops.Ctx) int { return 0 }
func (p *probeOp) Exec(ctx *ops.Ctx) bool {
	if bs := p.batchSize(); bs != p.lastBatch {
		p.lastBatch = bs
		p.onApply(p.sincePunct)
	}
	t := ctx.Ins[0].Pop()
	if t == nil {
		return false
	}
	if t.IsPunct() {
		p.sincePunct = 0
	} else {
		p.sincePunct++
	}
	ctx.Emit(t)
	return true
}

var _ ops.Operator = (*probeOp)(nil)

func buildProbePipeline(t *testing.T, opts Options, onApply func(sincePunct int)) (*Engine, *ops.Source, *probeOp, int) {
	t.Helper()
	g := graph.New("adapt")
	sch := intSchema("s", tuple.External)
	src := ops.NewSource("src", sch, 0)
	sid := g.AddNode(src)
	probe := &probeOp{name: "probe", onApply: onApply}
	pid := int(g.AddNode(probe, sid))
	col := &collector{}
	g.AddNode(ops.NewSink("sink", col.add), graph.NodeID(pid))
	e, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	probe.batchSize = func() int { return e.NodeBatchSize(pid) }
	probe.lastBatch = e.NodeBatchSize(pid)
	return e, src, probe, pid
}

func TestReconfigureAppliesAtNextBoundary(t *testing.T) {
	tr := metrics.NewTracer(256)
	applied := make(chan int, 1)
	e, src, _, pid := buildProbePipeline(t, Options{BatchSize: 8, Trace: tr}, func(sincePunct int) {
		applied <- sincePunct
	})
	e.Start()

	if !e.Reconfigure(pid, Reconfig{BatchSize: 3}) {
		t.Fatal("Reconfigure rejected a valid node id")
	}
	if e.Reconfigure(999, Reconfig{}) {
		t.Error("Reconfigure accepted an out-of-range id")
	}

	// Data alone must not trigger the apply; the punctuation boundary does.
	for i := 0; i < 5; i++ {
		e.Ingest(src, tuple.NewData(tuple.Time(i+1), tuple.Int(int64(i))))
	}
	select {
	case <-applied:
		t.Fatal("reconfiguration applied without a punctuation boundary")
	case <-time.After(20 * time.Millisecond):
	}
	if got := e.NodeBatchSize(pid); got != 8 {
		t.Fatalf("NodeBatchSize = %d before any punctuation, want 8", got)
	}
	// The apply follows the punctuation's step; the probe sees it in the
	// next tuple's Exec.
	e.Ingest(src, tuple.NewPunct(100))
	e.Ingest(src, tuple.NewData(101, tuple.Int(101)))
	select {
	case since := <-applied:
		if since != 0 {
			t.Fatalf("reconfiguration applied %d data tuples after a punctuation", since)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reconfiguration never applied after a punctuation")
	}
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := e.NodeBatchSize(pid); got != 3 {
		t.Errorf("NodeBatchSize = %d, want 3", got)
	}
	if tr.Count(metrics.EvRetuneApplied) == 0 {
		t.Error("no EvRetuneApplied trace event")
	}
	snap := e.Snapshot()
	if ns := snap.Node("probe"); ns == nil || ns.Retunes == 0 || ns.BatchSize != 3 {
		t.Errorf("snapshot retune evidence missing: %+v", ns)
	}
}

// TestReconfigureNeverAppliesMidBatch is the race-widened property test: a
// controller goroutine spams reconfigurations while the stream alternates
// data bursts and punctuation, with the fault injector's source stall
// holding the pipeline mid-burst — data emitted, bound not yet — for long
// windows. Every batch-size swap the probe operator observes must find it
// quiescent (no data emitted since its last punctuation). Run under -race.
func TestReconfigureNeverAppliesMidBatch(t *testing.T) {
	inj := fault.New(fault.Config{
		Seed:        7,
		StallSource: "src",
		StallAfter:  10 * time.Millisecond,
		StallFor:    30 * time.Millisecond,
	})
	var applies, violations atomic.Int64
	e, src, probe, pid := buildProbePipeline(t, Options{BatchSize: 16, Fault: inj}, func(sincePunct int) {
		applies.Add(1)
		if sincePunct != 0 {
			violations.Add(1)
		}
	})
	e.Start()
	inj.Arm()

	stopCtl := make(chan struct{})
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		bs := 1
		for {
			select {
			case <-stopCtl:
				return
			default:
			}
			bs = bs%64 + 1
			e.Reconfigure(pid, Reconfig{BatchSize: bs})
			time.Sleep(50 * time.Microsecond)
		}
	}()

	ts := tuple.Time(1)
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		// A burst of unbounded data: the probe emits rows whose bounding
		// punctuation has not been sent yet.
		for i := 0; i < 20; i++ {
			e.Ingest(src, tuple.NewData(ts, tuple.Int(int64(ts))))
			ts++
		}
		// The stall holds the stream mid-burst: downstream sits with
		// emitted-but-unbounded data while the controller keeps firing.
		for inj.SourceStalled("src") {
			time.Sleep(time.Millisecond)
		}
		e.Ingest(src, tuple.NewPunct(ts))
		ts++
	}
	e.Ingest(src, tuple.NewPunct(ts))
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	close(stopCtl)
	<-ctlDone

	if applies.Load() == 0 {
		t.Fatal("no reconfiguration ever applied")
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d reconfigurations observed between a batch and its bounding punctuation", v)
	}
	if probe.sincePunct != 0 {
		t.Errorf("probe ended un-quiescent: %d data since last punct", probe.sincePunct)
	}
}
