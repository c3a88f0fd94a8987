package ops

import (
	"testing"

	"repro/internal/tuple"
)

func TestFenceArmReachCancel(t *testing.T) {
	var f Fence[uint64]
	if !f.Arm(100, 7) {
		t.Fatal("first Arm refused")
	}
	if f.Arm(200, 8) {
		t.Fatal("second Arm stacked a fence")
	}
	if _, _, ok := f.Reach(99); ok {
		t.Fatal("fence at 100 taken at 99")
	}
	if f.Cancel(8) {
		t.Fatal("Cancel of another payload disarmed the fence")
	}
	at, v, ok := f.Reach(100)
	if !ok || at != 100 || v != 7 {
		t.Fatalf("Reach(100) = %v,%v,%v; want 100,7,true", at, v, ok)
	}
	if _, _, ok := f.Armed(); ok {
		t.Fatal("fence still armed after Reach")
	}
	f.Arm(300, 9)
	if !f.Cancel(9) {
		t.Fatal("Cancel of the armed payload failed")
	}
	if _, _, ok := f.Reach(tuple.MaxTime); ok {
		t.Fatal("cancelled fence taken")
	}
}

func TestFenceAtIsAboveTheMaximum(t *testing.T) {
	if got := FenceAt(50, 0); got != 51 {
		t.Fatalf("FenceAt(50, 0) = %v, want 51", got)
	}
	if got := FenceAt(50, 10); got != 60 {
		t.Fatalf("FenceAt(50, 10) = %v, want 60", got)
	}
}

// cutSource arms a source with a cut at 50 and feeds it tuples at 10, 20, …,
// 100 through ingest; it returns the emitted stream and the sequence number
// the source reported at its barrier.
func cutSource(t *testing.T, kind tuple.TSKind, ingest func(src *Source, ts tuple.Time)) ([]*tuple.Tuple, uint64) {
	t.Helper()
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind}).WithTS(kind)
	src := NewSource("s", sch, 0)
	h := newHarness(src)
	cutSeq := uint64(0)
	h.ctx.OnBarrier = func(id uint64, at tuple.Time) {
		if id != 3 || at != 50 {
			t.Fatalf("barrier reported (%d, %v), want (3, 50)", id, at)
		}
		cutSeq = src.Seq()
	}
	if !src.ArmCut(3, 50) {
		t.Fatal("ArmCut refused")
	}
	for ts := tuple.Time(10); ts <= 100; ts += 10 {
		ingest(src, ts)
	}
	h.run()
	return h.out, cutSeq
}

// A source emits its barrier at exactly the cut's timestamp, immediately
// before the first tuple at or above it, and its sequence number there is
// the count of tuples below the cut.
func TestSourceCutsAtTimestamp(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   tuple.TSKind
		ingest func(src *Source, ts tuple.Time)
	}{
		{"internal", tuple.Internal, func(src *Source, ts tuple.Time) {
			src.Ingest(tuple.NewData(0, tuple.Int(1)), ts) // stamped with the clock
		}},
		{"external", tuple.External, func(src *Source, ts tuple.Time) {
			src.Ingest(tuple.NewData(ts, tuple.Int(1)), 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, cutSeq := cutSource(t, tc.kind, tc.ingest)
			if len(out) != 11 {
				t.Fatalf("emitted %d tuples, want 10 data and a barrier: %v", len(out), out)
			}
			for i, p := range out {
				switch {
				case i < 4 && (p.IsPunct() || p.Ts != tuple.Time(10*(i+1))):
					t.Fatalf("tuple %d = %v, want data at %d", i, p, 10*(i+1))
				case i == 4 && (!p.IsPunct() || p.Ckpt != 3 || p.Ts != 50):
					t.Fatalf("tuple 4 = %+v, want the barrier of checkpoint 3 at 50", p)
				case i > 4 && (p.IsPunct() || p.Ts != tuple.Time(10*i)):
					t.Fatalf("tuple %d = %v, want data at %d", i, p, 10*i)
				}
			}
			if cutSeq != 4 {
				t.Fatalf("Seq at the barrier = %d, want 4 (the tuples below 50)", cutSeq)
			}
		})
	}
}

// A source that already emitted at or past a cut's timestamp when it first
// sees the cut refuses it rather than cut late.
func TestSourceRefusesCutItPassed(t *testing.T) {
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind}).WithTS(tuple.External)
	src := NewSource("s", sch, 0)
	h := newHarness(src)
	h.ctx.OnBarrier = func(uint64, tuple.Time) { t.Fatal("refused cut reported a barrier") }
	src.Ingest(tuple.NewData(60, tuple.Int(1)), 0)
	h.run()
	src.ArmCut(4, 50)
	src.Ingest(tuple.NewData(70, tuple.Int(1)), 0)
	h.run()
	if !src.CutRefused(4) {
		t.Fatal("cut at 50 not refused after a tuple at 60")
	}
	if _, _, ok := src.ArmedCut(); ok {
		t.Fatal("refused cut still armed")
	}
}

// An idle source reaches a cut with what it can promise, and EOS reaches any
// cut: a stream that closes is at every timestamp.
func TestSourceReachesCutIdleAndAtEOS(t *testing.T) {
	src := NewSource("s", tuple.NewSchema("s"), 0) // internal
	h := newHarness(src)
	src.ArmCut(1, 50)
	src.ReachCut(h.ctx, src.Promise(49))
	if len(h.out) != 0 {
		t.Fatalf("cut at 50 reached at clock 49: %v", h.out)
	}
	src.ReachCut(h.ctx, src.Promise(50))
	if len(h.out) != 1 || h.out[0].Ckpt != 1 || h.out[0].Ts != 50 {
		t.Fatalf("idle source at clock 50 emitted %v, want only the barrier at 50", h.out)
	}

	h.out = nil
	src.ArmCut(2, 1000)
	src.Offer(tuple.EOS())
	h.run()
	if len(h.out) != 2 || h.out[0].Ckpt != 2 || h.out[0].Ts != 1000 || !h.out[1].IsEOS() {
		t.Fatalf("EOS emitted %v, want the barrier at 1000 then EOS", h.out)
	}
}

// A union aligns a checkpoint by τ-order alone: each input's pre-cut tuples,
// then one barrier, then the post-cut tuples — whichever input's barrier
// arrives first, and with data at the cut's own timestamp waiting.
func TestUnionAlignsCutByTimestamp(t *testing.T) {
	u := NewUnion("u", nil, 2, TSM)
	h := newHarness(u)
	snapped := 0
	h.ctx.OnBarrier = func(id uint64, at tuple.Time) {
		if id != 5 || at != 30 {
			t.Fatalf("union snapshot (%d, %v), want (5, 30)", id, at)
		}
		if got := len(h.data()); got != 4 {
			t.Fatalf("union snapshot after %d data tuples, want the 4 below the cut", got)
		}
		snapped++
	}
	barrier := func() *tuple.Tuple {
		p := tuple.NewPunct(30)
		p.Ckpt = 5
		return p
	}
	// Input 0 reaches the cut early and runs ahead; input 1 lags.
	h.ins[0].PushAll([]*tuple.Tuple{tuple.NewData(10), tuple.NewData(20), barrier(), tuple.NewData(30), tuple.NewData(40)})
	h.ins[1].PushAll([]*tuple.Tuple{tuple.NewData(15)})
	h.run()
	if snapped != 0 {
		t.Fatal("union snapshot before input 1's barrier")
	}
	h.ins[1].PushAll([]*tuple.Tuple{tuple.NewData(25), barrier(), tuple.NewData(30), tuple.NewData(35), tuple.EOS()})
	h.ins[0].Push(tuple.EOS())
	h.run()
	if snapped != 1 {
		t.Fatalf("union snapshot %d times, want once", snapped)
	}
	wantTs(t, h.data(), 10, 15, 20, 25, 30, 30, 35, 40)
	var barriers []*tuple.Tuple
	for _, p := range h.puncts() {
		if p.Ckpt != 0 {
			barriers = append(barriers, p)
		}
	}
	if len(barriers) != 1 || barriers[0].Ts != 30 {
		t.Fatalf("union forwarded barriers %v, want one at 30", barriers)
	}
}

// A late tuple below the cut that arrives behind an input's barrier stays
// post-cut: that barrier pops only once τ reaches T, when every other
// input's barrier is at its head too, and barriers go before data, so the
// cut completes before the late tuple is consumed. It leaves after the
// snapshot, where a restore's replay puts it. The snapshot's registers are
// capped at T although input 1's head is already past it.
func TestUnionKeepsLateTupleBehindBarrierPostCut(t *testing.T) {
	u := NewUnion("u", nil, 3, TSM)
	h := newHarness(u)
	snapped := -1
	var regs [3]tuple.Time
	h.ctx.OnBarrier = func(uint64, tuple.Time) {
		snapped = len(h.data())
		for i := range regs {
			regs[i] = u.Registers().Get(i)
		}
	}
	barrier := func() *tuple.Tuple {
		p := tuple.NewPunct(30)
		p.Ckpt = 5
		return p
	}
	h.ins[0].PushAll([]*tuple.Tuple{tuple.NewData(10), barrier(), tuple.NewData(12), tuple.NewData(40)})
	h.ins[1].Push(tuple.NewData(15))
	h.ins[2].Push(tuple.NewData(17))
	h.run()
	wantTs(t, h.data(), 10, 15)
	h.ins[0].Push(tuple.EOS())
	h.ins[1].PushAll([]*tuple.Tuple{tuple.NewData(25), barrier(), tuple.NewData(45), tuple.EOS()})
	h.ins[2].PushAll([]*tuple.Tuple{barrier(), tuple.NewData(50), tuple.EOS()})
	h.run()
	if snapped != 4 {
		t.Fatalf("union snapshot after %d data tuples, want the 4 pre-cut ones (10, 15, 17, 25)", snapped)
	}
	if regs != [3]tuple.Time{30, 30, 30} {
		t.Fatalf("snapshot registers %v, want all capped at the cut, 30", regs)
	}
	wantTs(t, h.data(), 10, 15, 17, 25, 12, 40, 45, 50)
}

// A newer checkpoint's barrier abandons an older cut still waiting for an
// input, and the older one's late barrier counts for nothing.
func TestCutNewerIDRestartsOlderIsStale(t *testing.T) {
	var c cut
	if c.arrive(1, 2) {
		t.Fatal("first of two barriers completed the cut")
	}
	if c.arrive(2, 2) {
		t.Fatal("newer id completed on its first barrier")
	}
	if c.arrive(1, 2) {
		t.Fatal("stale barrier of checkpoint 1 counted")
	}
	if !c.arrive(2, 2) {
		t.Fatal("second barrier of checkpoint 2 did not complete it")
	}
}
