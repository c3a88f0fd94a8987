package ops

import (
	"container/heap"

	"repro/internal/tuple"
)

// Reorder tolerates bounded disorder on its input: tuples may arrive up to
// Slack out of timestamp order and are re-emitted in order. It implements
// the "flexible time management" role the paper cites (Srivastava & Widom,
// PODS'04) as the other major use of punctuation, and it is the standard
// ingestion guard in front of the order-requiring operators of this system.
//
// Semantics: the operator buffers tuples in a min-heap by timestamp and
// releases a tuple once the *high-water mark* (the largest timestamp seen)
// exceeds it by at least Slack — no later in-bound tuple can precede it.
// Punctuation with timestamp τ asserts no future input tuple has ts < τ
// regardless of slack, so it flushes everything below τ and passes through
// with the bound reduced by nothing (the output is fully ordered, so the
// bound only strengthens). Tuples arriving later than the slack allows are
// dropped and counted (the documented late-tuple policy).
type Reorder struct {
	base
	// Slack is the maximum tolerated disorder.
	Slack tuple.Time

	heapq    tsHeap
	high     tuple.Time // high-water mark of input timestamps
	released tuple.Time // largest timestamp already emitted

	dropped uint64
	out     uint64
}

// NewReorder builds a reorder operator with the given slack bound.
func NewReorder(name string, schema *tuple.Schema, slack tuple.Time) *Reorder {
	if slack < 0 {
		panic("reorder: negative slack")
	}
	return &Reorder{
		base:     base{name: name, inputs: 1, schema: schema},
		Slack:    slack,
		high:     tuple.MinTime,
		released: tuple.MinTime,
	}
}

// Dropped reports the number of late tuples discarded.
func (r *Reorder) Dropped() uint64 { return r.dropped }

// Buffered reports the number of tuples currently held back.
func (r *Reorder) Buffered() int { return len(r.heapq) }

// Emitted reports the number of data tuples released.
func (r *Reorder) Emitted() uint64 { return r.out }

// More reports whether the input holds a tuple.
func (r *Reorder) More(ctx *Ctx) bool { return !ctx.Ins[0].Empty() }

// BlockingInput returns 0 when the input is empty.
func (r *Reorder) BlockingInput(ctx *Ctx) int {
	if ctx.Ins[0].Empty() {
		return 0
	}
	return -1
}

// Exec consumes one input tuple and releases everything the new high-water
// mark (or punctuation bound) proves safe.
func (r *Reorder) Exec(ctx *Ctx) bool {
	t := ctx.Ins[0].Pop()
	if t == nil {
		return false
	}
	yield := false
	if t.IsPunct() {
		// A bound flushes everything below it, then passes through.
		yield = r.release(ctx, t.Ts)
		if t.Ts > r.released {
			r.released = t.Ts
		}
		if t.Ts > r.high {
			r.high = t.Ts
		}
		if t.Ckpt != 0 {
			ctx.barrier(t.Ckpt, t.Ts)
		}
		ctx.Emit(t)
		return true
	}
	if t.Ts <= r.released && r.released != tuple.MinTime {
		// Too late: releasing it would disorder the output arc.
		// (Equal timestamps are fine — simultaneous tuples.)
		if t.Ts < r.released {
			r.dropped++
			return yield
		}
	}
	heap.Push(&r.heapq, t)
	if t.Ts > r.high {
		r.high = t.Ts
	}
	if r.Slack < r.high { // guard MinTime underflow
		yield = r.release(ctx, r.high-r.Slack) || yield
	}
	return yield
}

// release emits buffered tuples with ts ≤ bound: a bound of τ promises that
// nothing earlier than τ remains in flight, and equal timestamps
// (simultaneous tuples) are safe to release together.
func (r *Reorder) release(ctx *Ctx, bound tuple.Time) bool {
	yield := false
	for len(r.heapq) > 0 && r.heapq[0].Ts <= bound {
		t := heap.Pop(&r.heapq).(*tuple.Tuple)
		if t.Ts > r.released {
			r.released = t.Ts
		}
		r.out++
		yield = true
		ctx.Emit(t)
	}
	return yield
}

// tsHeap is a min-heap of tuples by timestamp.
type tsHeap []*tuple.Tuple

func (h tsHeap) Len() int            { return len(h) }
func (h tsHeap) Less(i, j int) bool  { return h[i].Ts < h[j].Ts }
func (h tsHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *tsHeap) Push(x interface{}) { *h = append(*h, x.(*tuple.Tuple)) }
func (h *tsHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
