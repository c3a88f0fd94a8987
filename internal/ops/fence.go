package ops

import (
	"sync/atomic"

	"repro/internal/tsm"
	"repro/internal/tuple"
)

// Fence is an action armed at a timestamp T: "when the stream reaches T, do
// this". Any goroutine may arm or cancel it; only the operator that owns it
// takes it, on its own goroutine, the first time its stream carries a tuple,
// punctuation or EOS at or above T — a cut of the stream in the timestamp
// domain, not at a queue position. Split.Retarget swaps a routing table at T
// and Source.ArmCut emits a checkpoint barrier at T; the payload P is what
// the action needs (the table, the checkpoint id).
type Fence[P comparable] struct {
	p atomic.Pointer[fenced[P]]
}

type fenced[P comparable] struct {
	at tuple.Time
	v  P
}

// Arm installs the fence at timestamp at with payload v. It refuses (false)
// while another fence is armed: one fence at a time, never stacked.
func (f *Fence[P]) Arm(at tuple.Time, v P) bool {
	return f.p.CompareAndSwap(nil, &fenced[P]{at: at, v: v})
}

// Armed reports the armed fence, if any.
func (f *Fence[P]) Armed() (at tuple.Time, v P, ok bool) {
	if a := f.p.Load(); a != nil {
		return a.at, a.v, true
	}
	return at, v, false
}

// Reach takes the armed fence when ts has reached it, disarming it and
// returning its payload for the caller to act on. Owner goroutine only.
func (f *Fence[P]) Reach(ts tuple.Time) (at tuple.Time, v P, ok bool) {
	a := f.p.Load()
	if a == nil || ts < a.at || !f.p.CompareAndSwap(a, nil) {
		return at, v, false
	}
	return a.at, a.v, true
}

// Cancel disarms the fence if it is still armed with payload v, and reports
// whether it did.
func (f *Fence[P]) Cancel(v P) bool {
	a := f.p.Load()
	return a != nil && a.v == v && f.p.CompareAndSwap(a, nil)
}

// FenceAt places a fence lead past max, the highest timestamp observed on
// the streams, and at least one tick past, so nothing observed is at or
// beyond it. A checkpoint observes its sources exactly and needs only the
// tick; the shard controller reads splitters that keep routing, so its lead
// covers how far they move before every one is armed.
func FenceAt(max, lead tuple.Time) tuple.Time {
	if lead < 1 {
		lead = 1
	}
	return max + lead
}

// cut counts one checkpoint's barriers at a multi-input TSM operator. That
// is all alignment takes: every barrier of a checkpoint carries the same T,
// nothing after a barrier on its arc is below T, and tsm.Registers.More
// takes a barrier before data at an equal timestamp, so τ-order consumes
// every input's pre-cut tuples, then the barriers, then the post-cut ones.
type cut struct {
	id uint64
	n  int
}

// arrive counts a barrier popped from one of inputs inputs and reports
// whether it was the checkpoint's last. A newer id restarts the count (the
// older checkpoint was abandoned); an older id's barrier counts for nothing.
func (c *cut) arrive(id uint64, inputs int) bool {
	switch {
	case id > c.id:
		c.id, c.n = id, 0
	case id < c.id:
		return false
	}
	c.n++
	return c.n == inputs
}

// passBarrier handles a popped punctuation t at a multi-input TSM operator:
// when t is the last barrier of its checkpoint it snapshots the operator
// (Ctx.OnBarrier) with its registers capped at t.Ts (tsm.Registers.Cap) and
// forwards one barrier at t.Ts, raising the operator's output watermark and
// punctuation count. It reports whether it emitted.
func passBarrier(ctx *Ctx, c *cut, regs *tsm.Registers, t *tuple.Tuple, watermark *tuple.Time, punctOut *uint64) bool {
	if t.Ckpt == 0 || !c.arrive(t.Ckpt, len(ctx.Ins)) {
		return false
	}
	regs.Cap(t.Ts)
	if t.Ts > *watermark {
		*watermark = t.Ts
	}
	*punctOut++
	ctx.barrier(t.Ckpt, t.Ts)
	p := tuple.GetPunct(t.Ts)
	p.Ckpt = t.Ckpt
	ctx.Emit(p)
	return true
}

// plainPunct returns t untagged, for an operator forwarding consumed
// punctuation as is (DedupPunct off): its one barrier leaves by passBarrier.
// It copies rather than clears the tag, since another arc may share t.
func plainPunct(t *tuple.Tuple) *tuple.Tuple {
	if t.Ckpt == 0 {
		return t
	}
	return tuple.GetPunct(t.Ts)
}
