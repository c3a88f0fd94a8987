package ops

import (
	"sync/atomic"

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
