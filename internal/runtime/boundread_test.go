package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tuple"
	"repro/internal/window"
)

// manualClock is an engine clock a test sets by hand.
type manualClock struct{ t atomic.Int64 }

func (c *manualClock) now() tuple.Time   { return tuple.Time(c.t.Load()) }
func (c *manualClock) set(at tuple.Time) { c.t.Store(int64(at)) }

// idleUnion builds s1, s2 (internal) → TSM union → sink on an engine that is
// not started, so a test plays every goroutine's part by hand: the sources
// sit still as if parked and their run locks are free. The union holds one
// tuple of s1 at the clock and waits for a bound on s2.
func idleUnion(t *testing.T, clk *manualClock) (e *Engine, s2 *ops.Source, s2n, un *node) {
	t.Helper()
	g, _, s2, _ := buildUnion(t, ops.TSM, tuple.Internal)
	e, err := New(g, Options{OnDemandETS: true, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range e.nodes {
		switch n.name {
		case "s2":
			s2n = n
		case "u":
			un = n
		}
	}
	if un.reads == nil || un.reads[1].src != s2n || un.reads[0].src == nil {
		t.Fatalf("union reads %+v: want both direct internal arcs", un.reads)
	}
	un.ins[0].Push(tuple.NewData(clk.now(), tuple.Int(1)))
	return e, s2, s2n, un
}

// nodeCtx is a node's execution context, for running its goroutine's part
// by hand.
func (e *Engine) nodeCtx(n *node) *ops.Ctx {
	return &ops.Ctx{Ins: n.ins, Emit: func(t *tuple.Tuple) { e.emit(n, t) }, Now: e.now}
}

func register(un *node, in int) tuple.Time {
	return un.iwp.(*ops.Union).Registers().Get(in)
}

// A bound read promises the clock it read, on the consumer's goroutine; the
// source's next take reads its own clock, which need not be ordered after
// it. The take is stamped at the inlet's floor, never below the bound.
func TestBoundReadStampsAtFloor(t *testing.T) {
	clk := &manualClock{}
	clk.set(100)
	e, s2, s2n, un := idleUnion(t, clk)
	if !e.readBound(un, e.nodeCtx(un), 1) {
		t.Fatal("read declined on an idle, drained source")
	}
	if r := register(un, 1); r != 100 {
		t.Fatalf("register after the read = %d, want 100", r)
	}
	clk.set(50) // the source's clock reading trails the one the read took
	e.Ingest(s2, tuple.NewData(0, tuple.Int(2)))
	e.drainInlet(s2n, s2)
	if got := s2.Inbox().Peek().Ts; got < 100 {
		t.Fatalf("take stamped %d, below the bound 100 read from its source", got)
	}
}

// An armed cut caps a read below its T, and a barrier the source has emitted
// but the union has not received blocks the read: the bound may pass T only
// behind the barrier.
func TestBoundReadRespectsCut(t *testing.T) {
	clk := &manualClock{}
	clk.set(200)
	e, s2, s2n, un := idleUnion(t, clk)
	e.cutAt = func(tuple.Time) tuple.Time { return 150 }
	if at, err := e.armCut(1); err != nil || at != 150 {
		t.Fatalf("armCut = %d, %v", at, err)
	}
	if !e.readBound(un, e.nodeCtx(un), 1) {
		t.Fatal("read declined below an armed cut")
	}
	if r := register(un, 1); r != 149 {
		t.Fatalf("register after a read under a cut at 150 = %d, want 149", r)
	}

	// The source reaches the cut (the checkpoint's nudge): its barrier is
	// flushed onto the arc and in flight.
	s2.ReachCut(e.nodeCtx(s2n), s2.Promise(e.now()))
	if _, _, armed := s2.ArmedCut(); armed {
		t.Fatal("source did not reach its cut")
	}
	clk.set(300)
	if e.readBound(un, e.nodeCtx(un), 1) {
		t.Fatalf("read at %d while the barrier at 150 is in flight", register(un, 1))
	}
	e.deliver(un, <-un.in)
	if e.readBound(un, e.nodeCtx(un), 1) {
		t.Fatal("read while the barrier waits in the union's queue")
	}
	if b := un.ins[1].Pop(); b.Ckpt != 1 || b.Ts != 150 {
		t.Fatalf("delivered %v, want the barrier at 150", b)
	}
	if !e.readBound(un, e.nodeCtx(un), 1) || register(un, 1) != 300 {
		t.Fatalf("read after the barrier: register %d, want 300", register(un, 1))
	}
}

// A read records its bound as issued: the source's own on-demand ETS never
// goes below it, and one that lands below the register anyway is absorbed
// by the union without disturbing its output order.
func TestBoundReadAbsorbsStaleETS(t *testing.T) {
	clk := &manualClock{}
	clk.set(100)
	e, s2, s2n, un := idleUnion(t, clk)
	if !e.readBound(un, e.nodeCtx(un), 1) {
		t.Fatal("read declined on an idle, drained source")
	}
	clk.set(50)
	if p := e.sourceETS(s2n, s2); p != nil {
		t.Fatalf("source issued an ETS at %d below the bound 100 read from it", p.Ts)
	}

	var out []*tuple.Tuple
	u := un.iwp.(*ops.Union)
	ctx := &ops.Ctx{Ins: un.ins, Emit: func(t *tuple.Tuple) { out = append(out, t) }, Now: clk.now}
	un.ins[1].Push(tuple.NewPunct(50)) // a demanded ETS, overtaken by the read
	un.ins[0].Push(tuple.NewData(100, tuple.Int(2)))
	un.ins[1].Push(tuple.NewData(120, tuple.Int(3)))
	un.ins[0].Push(tuple.NewPunct(130))
	for u.More(ctx) {
		u.Exec(ctx)
	}
	prev := tuple.MinTime
	for _, tp := range out {
		if tp.Ts < prev {
			t.Fatalf("union output out of order: %v", out)
		}
		prev = tp.Ts
	}
	rows := 0
	for _, tp := range out {
		if !tp.IsPunct() {
			rows++
		} else if tp.Ts < 100 {
			t.Fatalf("union forwarded the stale bound: %v", out)
		}
	}
	if rows != 3 {
		t.Fatalf("union emitted %v, want three rows", out)
	}
}

// A TSM hash join over two internal sources, one fed and one parked, runs on
// bounds read from the parked side: every fed tuple is consumed and the fed
// side's window stays within its span. The read's punctuation effects on the
// join itself are pinned in ops (TestJoinRaiseBoundExpiresAndPropagates).
func TestBoundReadJoinKeepsWindowInSpan(t *testing.T) {
	const span, gap, fed = 5 * tuple.Millisecond, 2 * time.Millisecond, 60
	g := graph.New("j")
	s1 := ops.NewSource("s1", intSchema("s1", tuple.Internal), 0)
	s2 := ops.NewSource("s2", intSchema("s2", tuple.Internal), 0)
	a, b := g.AddNode(s1), g.AddNode(s2)
	j := ops.NewHashWindowJoin("j", nil, window.TimeWindow(span), window.TimeWindow(span), 0, 0, ops.TSM)
	col := &collector{}
	g.AddNode(ops.NewSink("k", col.add), g.AddNode(j, a, b))
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < fed; i++ {
		e.Ingest(s1, tuple.NewData(0, tuple.Int(int64(i))))
		time.Sleep(gap)
	}
	e.CloseStream(s1)
	e.CloseStream(s2)
	e.Wait()
	if e.BoundReads() == 0 {
		t.Fatal("the join never read the parked source's bound")
	}
	if c := j.Consumed(0); c != fed {
		t.Fatalf("join consumed %d fed tuples, want %d", c, fed)
	}
	// Arrivals are at least gap apart, so a span holds about span/gap of
	// them; a third of the feed leaves room for a slow scheduler.
	if p := j.HashWindow(0).Peak(); p > fed/3 {
		t.Fatalf("fed side's window peaked at %d of %d tuples (span %v, gap %v)", p, fed, span, gap)
	}
}
