// Package tsm implements the Time-Stamp Memory (TSM) registers of the paper
// (§4.1) and the timestamp arithmetic used for Enabling Time-Stamp (ETS)
// generation (§5).
//
// Each input of an Idle-Waiting-Prone (IWP) operator — union or join — owns a
// TSM register. The register is updated with the timestamp of the current
// input tuple (data or punctuation) and retains that value after the input
// drains, until the next tuple updates it. The registers give the operator a
// per-input lower bound on all future timestamps, which enables the *relaxed
// more condition* of Figure 5: the operator can run as soon as some input
// holds a tuple whose timestamp equals the minimum across all registers —
// even if other inputs are momentarily empty.
package tsm

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/tuple"
)

// Registers is the bank of TSM registers for one IWP operator, one per
// input. The zero value of each register is tuple.MinTime: before anything
// has arrived on an input, no lower bound on its future timestamps exists,
// so the relaxed more condition cannot hold.
type Registers struct {
	ts []tuple.Time
}

// New returns a bank of n registers, all initialized to tuple.MinTime.
func New(n int) *Registers {
	r := &Registers{ts: make([]tuple.Time, n)}
	for i := range r.ts {
		r.ts[i] = tuple.MinTime
	}
	return r
}

// Len reports the number of registers.
func (r *Registers) Len() int { return len(r.ts) }

// Get returns register i.
func (r *Registers) Get(i int) tuple.Time { return r.ts[i] }

// Set overwrites register i unconditionally — the checkpoint-restore path,
// where the saved value is a valid lower bound for the replayed stream and
// the current value is the zero MinTime.
func (r *Registers) Set(i int, ts tuple.Time) { r.ts[i] = ts }

// Update sets register i to ts if ts is larger; timestamps on an arc are
// non-decreasing so a smaller value would indicate disorder and is ignored.
// It reports whether the register advanced.
func (r *Registers) Update(i int, ts tuple.Time) bool {
	if ts > r.ts[i] {
		r.ts[i] = ts
		return true
	}
	return false
}

// Cap lowers every register above at to at. A multi-input operator caps
// its registers at a checkpoint's T just before its snapshot: a register
// above T was raised by a post-cut head that is still queued (the next
// Observe raises it again), and a snapshot must hold nothing past its own
// cut, or a restored operator could take the next cut's barriers before its
// inputs reach them.
func (r *Registers) Cap(at tuple.Time) {
	for i, ts := range r.ts {
		if ts > at {
			r.ts[i] = at
		}
	}
}

// Observe refreshes every register from the head tuple of its input buffer.
// Inputs that are currently empty keep their remembered value — that is the
// entire point of the registers.
func (r *Registers) Observe(ins []*buffer.Queue) {
	for i, q := range ins {
		if head := q.Peek(); head != nil {
			r.Update(i, head.Ts)
		}
	}
}

// Min returns the minimal register value — the operator-wide lower bound τ
// on the timestamp of any future input tuple — and the index of (one of) the
// inputs holding it.
func (r *Registers) Min() (tuple.Time, int) {
	min, arg := r.ts[0], 0
	for i := 1; i < len(r.ts); i++ {
		if r.ts[i] < min {
			min, arg = r.ts[i], i
		}
	}
	return min, arg
}

// More evaluates the relaxed more condition of Figure 5 against the input
// buffers: more holds iff at least one input buffer holds a head tuple whose
// timestamp does not exceed τ, the minimum across the registers. Callers
// must invoke Observe first so the registers reflect the current buffer
// heads.
//
// With ordered arcs a head timestamp below τ cannot occur (Observe raises
// the input's own register to its head, and τ is the minimum). It does
// occur when an ETS over-estimated a bound — the paper's estimators promise,
// they do not guarantee (§5) — and a data tuple below the promised bound
// arrives afterwards. Such a late tuple is matched by ≤ rather than ==, so
// it is consumed immediately (it cannot get less late) instead of wedging
// the operator: a register can never move back down to meet an exact-match
// head, and an operator that holds data it can never process demands
// upstream forever.
//
// The returned index identifies an input whose head is consumable. A
// checkpoint barrier (a punctuation with a Ckpt tag) comes first, then data,
// then other punctuation: data is never held back behind plain punctuation
// at a timestamp, and a barrier at T is consumed before any data at T, which
// is what aligns a checkpoint's cut by τ-order alone — every tuple after a
// barrier on its arc is at or above T, so none is consumed before the last
// input's barrier.
func (r *Registers) More(ins []*buffer.Queue) (ok bool, input int, τ tuple.Time) {
	τ, _ = r.Min()
	if τ == tuple.MinTime {
		// Some input has never produced a tuple or ETS: no bound exists.
		return false, -1, τ
	}
	input = -1
	data := -1
	for i, q := range ins {
		head := q.Peek()
		if head == nil || head.Ts > τ {
			continue
		}
		switch {
		case !head.IsPunct():
			if data < 0 {
				data = i
			}
		case head.Ckpt != 0:
			return true, i, τ
		case input < 0:
			input = i
		}
	}
	if data >= 0 {
		return true, data, τ
	}
	return input >= 0, input, τ
}

// BlockingInput identifies the input responsible for more being false: the
// (an) input whose register holds the minimal value and whose buffer is
// empty. The DFS Backtrack rule for multi-input operators (§3.2) backtracks
// to the predecessor feeding this input. When every minimal input is
// non-empty (more is true, or disorder), it returns -1.
func (r *Registers) BlockingInput(ins []*buffer.Queue) int {
	τ, _ := r.Min()
	for i, q := range ins {
		if r.ts[i] == τ && q.Empty() {
			return i
		}
	}
	// τ == MinTime with a non-empty buffer cannot happen after Observe;
	// an empty input with register above τ is not the blocker.
	for i, q := range ins {
		if q.Empty() {
			return i
		}
	}
	return -1
}

func (r *Registers) String() string {
	return fmt.Sprintf("tsm%v", r.ts)
}
