package ops

import (
	"testing"
	"testing/quick"

	"repro/internal/tuple"
	"repro/internal/window"
)

func keyed(ts tuple.Time, key int64) *tuple.Tuple {
	return tuple.NewData(ts, tuple.Int(key))
}

func TestJoinRejectsBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("degenerate window spec must panic")
		}
	}()
	NewWindowJoin("j", nil, window.Spec{}, CrossJoin(), Basic)
}

func TestEquiJoinPredicate(t *testing.T) {
	p := EquiJoin(0, 0)
	if !p(keyed(1, 5), keyed(2, 5)) || p(keyed(1, 5), keyed(2, 6)) {
		t.Error("EquiJoin predicate wrong")
	}
}

func TestBasicJoinMatchesWithinWindow(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(10), EquiJoin(0, 0), Basic)
	h := newHarness(j)
	h.ins[0].Push(keyed(1, 7))
	h.ins[0].Push(keyed(5, 8))
	h.ins[1].Push(keyed(3, 7))
	h.ins[1].Push(keyed(6, 8))
	h.run()
	// 1:A(7) joins nothing; 3:B(7) joins A(7); 5:A(8) joins nothing.
	// Then input A drains and the Figure-1 rules idle-wait: B(6,8) is
	// stranded even though its match already sits in W(A).
	d := h.data()
	if len(d) != 1 || d[0].Ts != 3 {
		t.Fatalf("joined pairs = %v", d)
	}
	// Output layout is always (left values, right values).
	if d[0].Vals[0].AsInt() != 7 || len(d[0].Vals) != 2 {
		t.Errorf("output vals = %v", d[0].Vals)
	}
	// A later A tuple releases the stranded B tuple.
	h.ins[0].Push(keyed(7, 99))
	h.run()
	d = h.data()
	if len(d) != 2 || d[1].Ts != 6 {
		t.Fatalf("after release: %v", d)
	}
	if j.DataEmitted() != 2 || j.Consumed(0) != 2 || j.Consumed(1) != 2 {
		t.Errorf("counters: %d out, %d/%d in", j.DataEmitted(), j.Consumed(0), j.Consumed(1))
	}
}

func TestJoinWindowExpiration(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(10), CrossJoin(), Basic)
	h := newHarness(j)
	h.ins[0].Push(keyed(0, 1))
	h.ins[1].Push(keyed(100, 2)) // far beyond window: A(0) must have expired
	h.ins[0].Push(keyed(200, 3)) // releases B(100) under the Figure-1 rules
	h.run()
	if len(h.data()) != 0 {
		t.Fatalf("expired tuple joined: %v", h.data())
	}
	// Processing B(100) expired A(0) from the left window. A(200) itself
	// is still stranded in the input buffer (B drained → Figure-1 rules
	// idle-wait), so the window is empty.
	if j.Window(0).Len() != 0 {
		t.Errorf("left window: %v", j.Window(0).Snapshot())
	}
	if h.ins[0].Len() != 1 || h.ins[0].Peek().Ts != 200 {
		t.Errorf("expected A(200) stranded, buffer: %v", h.ins[0].Peek())
	}
}

func TestJoinBoundaryExactlyInWindow(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(10), CrossJoin(), TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(0, 1))
	h.ins[0].Push(tuple.EOS())
	h.ins[1].Push(keyed(10, 2)) // |10-0| == span: still joins
	h.ins[1].Push(tuple.EOS())
	h.run()
	if len(h.data()) != 1 {
		t.Fatalf("boundary pair did not join: %v", h.data())
	}
}

func TestBasicJoinIdleWaits(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(10), CrossJoin(), Basic)
	h := newHarness(j)
	h.ins[0].Push(keyed(1, 1))
	if j.More(h.ctx) {
		t.Fatal("basic join must idle-wait on empty input")
	}
	if j.BlockingInput(h.ctx) != 1 {
		t.Errorf("BlockingInput = %d", j.BlockingInput(h.ctx))
	}
}

func TestTSMJoinUnblockedByPunct(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(100), EquiJoin(0, 0), TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(10, 1))
	h.ins[1].Push(keyed(5, 1))
	h.run()
	// B(5) processed first (τ=5), joins empty A-window; A(10) waits: B's
	// register is 5 and B is empty.
	if len(h.data()) != 0 {
		t.Fatalf("premature join output: %v", h.data())
	}
	if j.More(h.ctx) {
		t.Fatal("A(10) must wait for a bound on B")
	}
	if j.BlockingInput(h.ctx) != 1 {
		t.Fatalf("BlockingInput = %d", j.BlockingInput(h.ctx))
	}
	h.ins[1].Push(tuple.NewPunct(50))
	h.run()
	// Bound releases A(10), which joins B(5) sitting in the window.
	d := h.data()
	if len(d) != 1 || d[0].Ts != 10 {
		t.Fatalf("join after ETS = %v", d)
	}
	// Output punct carries min(50, 10) = 10: suppressed as it does not
	// advance past the data tuple at 10. (watermark == 10 already)
	if len(h.puncts()) != 0 {
		t.Fatalf("puncts = %v", h.puncts())
	}
}

func TestTSMJoinPunctExpiresOppositeWindow(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(10), CrossJoin(), TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(0, 1))
	h.ins[1].Push(tuple.NewPunct(0)) // establish bound on B
	h.run()
	if j.Window(0).Len() != 1 {
		t.Fatalf("left window = %d", j.Window(0).Len())
	}
	// Punctuation at 100 on both inputs proves no tuple below 100 will
	// come; A(0) can never join again and memory is reclaimed without any
	// data flowing. (The bound is needed on A too: until A's register
	// advances, the join may not consume B's punctuation out of order.)
	h.ins[0].Push(tuple.NewPunct(100))
	h.ins[1].Push(tuple.NewPunct(100))
	h.run()
	if j.Window(0).Len() != 0 {
		t.Fatalf("ETS failed to expire window: %d live", j.Window(0).Len())
	}
	// And the bound was propagated downstream.
	p := h.puncts()
	if len(p) == 0 {
		t.Fatal("no punct propagated")
	}
}

func TestTSMJoinPunctForwardedNoDedup(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(10), CrossJoin(), TSM)
	j.DedupPunct = false
	h := newHarness(j)
	h.ins[0].Push(tuple.NewPunct(5))
	h.ins[1].Push(tuple.NewPunct(5))
	h.run()
	if len(h.puncts()) != 2 {
		t.Fatalf("puncts = %v", h.puncts())
	}
}

func TestTSMJoinSimultaneous(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(100), EquiJoin(0, 0), TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(10, 1))
	h.ins[1].Push(keyed(10, 1))
	h.run()
	// Both sides at τ=10: one is consumed into its window, then the other
	// joins it. No idle-waiting, exactly one pair.
	d := h.data()
	if len(d) != 1 || d[0].Ts != 10 {
		t.Fatalf("simultaneous join = %v", d)
	}
}

func TestTSMJoinEOS(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(10), CrossJoin(), TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(1, 1))
	h.ins[0].Push(tuple.EOS())
	h.ins[1].Push(keyed(2, 2))
	h.ins[1].Push(tuple.EOS())
	h.run()
	if len(h.data()) != 1 {
		t.Fatalf("data = %v", h.data())
	}
	p := h.puncts()
	if len(p) == 0 || !p[len(p)-1].IsEOS() {
		t.Fatalf("EOS not propagated: %v", p)
	}
}

func TestLatentJoinStampsOnTheFly(t *testing.T) {
	j := NewWindowJoin("j", nil, window.TimeWindow(1000), CrossJoin(), LatentMode)
	h := newHarness(j)
	h.now = 77
	h.ins[0].Push(tuple.NewData(tuple.MinTime, tuple.Int(1)))
	h.run()
	h.now = 80
	h.ins[1].Push(tuple.NewData(tuple.MinTime, tuple.Int(2)))
	h.run()
	d := h.data()
	if len(d) != 1 || d[0].Ts != 80 {
		t.Fatalf("latent join = %v", d)
	}
	if j.Window(0).Newest().Ts != 77 {
		t.Errorf("latent stamp = %v, want 77", j.Window(0).Newest().Ts)
	}
	if j.BlockingInput(h.ctx) != -1 {
		t.Error("latent join never blocks")
	}
}

func TestJoinRowWindow(t *testing.T) {
	j := NewWindowJoin("j", nil, window.RowWindow(2), CrossJoin(), TSM)
	h := newHarness(j)
	for i := 0; i < 4; i++ {
		h.ins[0].Push(keyed(tuple.Time(i), int64(i)))
	}
	h.ins[1].Push(tuple.NewPunct(3)) // bound lets all A tuples in
	h.run()
	h.ins[1].Push(keyed(4, 9))
	h.ins[0].Push(tuple.NewPunct(10))
	h.run()
	// B(4) joins only the last 2 A tuples (row window).
	if len(h.data()) != 2 {
		t.Fatalf("row-window join = %v", h.data())
	}
}

// Property: TSM join emits every qualifying pair exactly once when both
// streams terminate with EOS, matching a brute-force reference join.
func TestTSMJoinCompletenessProperty(t *testing.T) {
	f := func(aGaps, bGaps []uint8, spanRaw uint8) bool {
		span := tuple.Time(spanRaw%20 + 1)
		j := NewWindowJoin("j", nil, window.TimeWindow(span), CrossJoin(), TSM)
		h := newHarness(j)
		var as, bs []tuple.Time
		ts := tuple.Time(0)
		for _, g := range aGaps {
			ts += tuple.Time(g % 8)
			as = append(as, ts)
			h.ins[0].Push(tuple.NewData(ts))
		}
		h.ins[0].Push(tuple.EOS())
		ts = 0
		for _, g := range bGaps {
			ts += tuple.Time(g % 8)
			bs = append(bs, ts)
			h.ins[1].Push(tuple.NewData(ts))
		}
		h.ins[1].Push(tuple.EOS())
		h.run()
		want := 0
		for _, a := range as {
			for _, b := range bs {
				d := a - b
				if d < 0 {
					d = -d
				}
				if d <= span {
					want++
				}
			}
		}
		return len(h.data()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A bound raised on one of a join's inputs (an engine's bound read) has the
// effects of a punctuation consumed there: the opposite window expires
// against it at once, and a merged bound that advanced propagates while the
// join still cannot run. A raise that lets it run leaves the bound to the
// tuple it pops next; one that does not advance the register does nothing.
func TestJoinRaiseBoundExpiresAndPropagates(t *testing.T) {
	j := NewHashWindowJoin("j", nil, window.TimeWindow(10), window.TimeWindow(10), 0, 0, TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(5, 1))
	h.ins[0].Push(keyed(50, 2))
	h.ins[1].Push(tuple.NewPunct(5))
	h.run()
	if j.WindowLen(0) != 1 || j.More(h.ctx) || j.BlockingInput(h.ctx) != 1 {
		t.Fatalf("setup: left window %d, want 1 and the join blocked on the right", j.WindowLen(0))
	}
	h.out = nil
	if !j.RaiseBound(h.ctx, 1, 30) {
		t.Fatal("RaiseBound(30) did not advance the right register")
	}
	if n := j.WindowLen(0); n != 0 {
		t.Errorf("left window holds %d after a right bound of 30 (span 10), want 0", n)
	}
	if p := h.puncts(); len(p) != 1 || p[0].Ts != 30 || j.More(h.ctx) {
		t.Errorf("emitted %v, want the merged bound 30 with the join still blocked", h.out)
	}
	h.out = nil
	if !j.RaiseBound(h.ctx, 1, 100) || !j.More(h.ctx) || len(h.out) != 0 {
		t.Errorf("RaiseBound(100): join runnable %v, emitted %v; want runnable, nothing emitted", j.More(h.ctx), h.out)
	}
	if j.RaiseBound(h.ctx, 1, 80) || len(h.out) != 0 {
		t.Errorf("a bound below the register advanced it or emitted %v", h.out)
	}
	h.run()
	if j.WindowLen(0) != 1 || len(h.data()) != 0 || j.Watermark() != 50 {
		t.Errorf("after the run: left window %d, watermark %d, output %v", j.WindowLen(0), j.Watermark(), h.out)
	}
}
