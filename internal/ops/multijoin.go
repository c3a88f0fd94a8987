package ops

import (
	"fmt"
	"sync/atomic"

	"repro/internal/tsm"
	"repro/internal/tuple"
	"repro/internal/window"
)

// MultiPred decides whether a candidate combination of tuples — one per
// input, with vals[i] from input i — joins. The tuple that just arrived is
// always present in the combination.
type MultiPred func(vals []*tuple.Tuple) bool

// MultiEquiJoin matches combinations whose values at the given column (one
// index per input) are all equal.
func MultiEquiJoin(cols ...int) MultiPred {
	return func(vals []*tuple.Tuple) bool {
		first := vals[0].Vals[cols[0]]
		for i := 1; i < len(vals); i++ {
			if !vals[i].Vals[cols[i]].Equal(first) {
				return false
			}
		}
		return true
	}
}

// MultiJoin is the n-way symmetric window join the paper defers ("we omit
// here the discussion of multi-way joins ... whose treatment is however
// similar to that of binary joins", §2). Each input keeps a window; a new
// tuple on input i joins against the cross product of the other windows.
// TSM registers make the operator punctuation-aware exactly like the binary
// join: every input needs a timestamp bound before the operator may run,
// punctuation expires every other window, and the merged bound propagates.
type MultiJoin struct {
	base
	pred MultiPred
	regs *tsm.Registers
	wins []*window.Store

	// keyCols are the equi-join columns (one per input) when the join was
	// built with NewMultiEquiJoin; nil for an opaque predicate. Known
	// columns make the join partitionable and enable per-level probe
	// filtering (a candidate is discarded the moment its key mismatches,
	// instead of at the full combination).
	keyCols []int

	// order is the probe sequence over inputs (a permutation of 0..n-1),
	// swapped in by the adaptive controller at punctuation boundaries;
	// nil means natural input order. Atomic because the controller reads
	// it (to decide whether a reorder is worthwhile) while the join's
	// goroutine walks it.
	order atomic.Pointer[[]int]

	// Per-input probe selectivity evidence, read by the controller:
	// probes[i] counts scans of window i, visits[i] candidates enumerated
	// from it, passed[i] candidates surviving the per-level key filter.
	probes, visits, passed []atomic.Uint64

	// mag pools output tuples (single-owner, see WindowJoin.mag).
	mag tuple.Magazine

	// DedupPunct is as for Union and WindowJoin.
	DedupPunct bool
	watermark  tuple.Time
	al         aligner // checkpoint-barrier alignment

	dataOut  uint64
	punctOut uint64
}

// NewMultiJoin builds an n-way symmetric window join (n ≥ 2, TSM rules).
func NewMultiJoin(name string, schema *tuple.Schema, n int, spec window.Spec, pred MultiPred) *MultiJoin {
	if n < 2 {
		panic(fmt.Sprintf("multijoin %s: need at least 2 inputs, got %d", name, n))
	}
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("multijoin %s: %v", name, err))
	}
	j := &MultiJoin{
		base:       base{name: name, inputs: n, schema: schema},
		pred:       pred,
		regs:       tsm.New(n),
		DedupPunct: true,
		watermark:  tuple.MinTime,
	}
	j.wins = make([]*window.Store, n)
	for i := range j.wins {
		j.wins[i] = window.NewStore(spec)
	}
	j.probes = make([]atomic.Uint64, n)
	j.visits = make([]atomic.Uint64, n)
	j.passed = make([]atomic.Uint64, n)
	return j
}

// NewMultiEquiJoin builds an n-way symmetric window equi-join over one key
// column per input (n = len(cols) ≥ 2). Equivalent to NewMultiJoin with
// MultiEquiJoin(cols...), but the recorded columns make it partitionable.
func NewMultiEquiJoin(name string, schema *tuple.Schema, spec window.Spec, cols ...int) *MultiJoin {
	j := NewMultiJoin(name, schema, len(cols), spec, MultiEquiJoin(cols...))
	j.keyCols = append([]int(nil), cols...)
	return j
}

// Window exposes the window store of input i.
func (j *MultiJoin) Window(i int) *window.Store { return j.wins[i] }

// SetProbeOrder installs a new probe sequence (a permutation of 0..n-1).
// The adaptive controller delivers it through the runtime's reconfiguration
// protocol so the swap lands on the join's own goroutine at a punctuation
// boundary; an invalid permutation is rejected.
func (j *MultiJoin) SetProbeOrder(order []int) bool {
	n := len(j.wins)
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return false
		}
		seen[i] = true
	}
	o := append([]int(nil), order...)
	j.order.Store(&o)
	return true
}

// ProbeOrder returns the current probe sequence (natural order if never
// reordered).
func (j *MultiJoin) ProbeOrder() []int {
	if o := j.order.Load(); o != nil {
		return append([]int(nil), (*o)...)
	}
	o := make([]int, len(j.wins))
	for i := range o {
		o[i] = i
	}
	return o
}

// ProbeStat is one input's accumulated probe evidence.
type ProbeStat struct {
	// Probes counts scans of this input's window (one per surviving prefix
	// that reached it).
	Probes uint64
	// Visits counts candidate tuples enumerated from the window.
	Visits uint64
	// Passed counts candidates that survived the per-level key filter —
	// Passed/Probes is the window's expected match fan-out, the quantity
	// cheapest-first ordering minimizes early in the sequence.
	Passed uint64
}

// ProbeStats returns per-input probe selectivity counters. Safe to call from
// the controller while the join runs.
func (j *MultiJoin) ProbeStats() []ProbeStat {
	out := make([]ProbeStat, len(j.wins))
	for i := range out {
		out[i] = ProbeStat{
			Probes: j.probes[i].Load(),
			Visits: j.visits[i].Load(),
			Passed: j.passed[i].Load(),
		}
	}
	return out
}

// KeyCols returns the equi-join key columns, or nil for an opaque predicate.
func (j *MultiJoin) KeyCols() []int { return j.keyCols }

// DataEmitted reports the number of joined combinations emitted.
func (j *MultiJoin) DataEmitted() uint64 { return j.dataOut }

// PunctEmitted reports the number of punctuation tuples emitted.
func (j *MultiJoin) PunctEmitted() uint64 { return j.punctOut }

// More implements the relaxed condition over all n inputs.
func (j *MultiJoin) More(ctx *Ctx) bool {
	j.regs.Observe(ctx.Ins)
	if j.al.ready(ctx.Ins) >= 0 {
		return true
	}
	ok, _, _ := j.regs.More(ctx.Ins)
	return ok
}

// BlockingInput identifies the input to backtrack into.
func (j *MultiJoin) BlockingInput(ctx *Ctx) int {
	j.regs.Observe(ctx.Ins)
	if j.al.ready(ctx.Ins) >= 0 {
		return -1
	}
	if ok, _, _ := j.regs.More(ctx.Ins); ok {
		return -1
	}
	return j.regs.BlockingInput(ctx.Ins)
}

// Exec performs one production/consumption step.
func (j *MultiJoin) Exec(ctx *Ctx) bool {
	j.regs.Observe(ctx.Ins)
	var t *tuple.Tuple
	τ := tuple.MinTime
	input := j.al.ready(ctx.Ins)
	if input >= 0 {
		// A checkpoint barrier at the head of an unaligned input is
		// consumable regardless of τ (see barrier.go).
		t = ctx.Ins[input].Pop()
	} else {
		ok, in, bound := j.regs.More(ctx.Ins)
		if !ok {
			return false
		}
		input, τ = in, bound
		t = ctx.Ins[input].Pop()
	}
	if handled, yield := handleBarrier(&j.al, j, ctx, input, t); handled {
		return yield
	}
	if !t.IsPunct() {
		if τ > j.watermark {
			j.watermark = τ
		}
		return j.produce(ctx, input, t)
	}
	return j.punctStep(ctx, input, t)
}

// punctStep runs the punctuation rule for a consumed punctuation on input:
// expire every other window against the bound, then propagate the merged
// bound.
func (j *MultiJoin) punctStep(ctx *Ctx, input int, t *tuple.Tuple) bool {
	for i, w := range j.wins {
		if i != input {
			w.ExpireTo(t.Ts)
		}
	}
	j.regs.Observe(ctx.Ins)
	bound, _ := j.regs.Min()
	if !j.DedupPunct {
		j.punctOut++
		ctx.Emit(t)
		return true
	}
	if bound > j.watermark && bound != tuple.MaxTime {
		j.watermark = bound
		j.punctOut++
		ctx.Emit(tuple.GetPunct(bound))
		return true
	}
	if t.IsEOS() && j.allEOS() {
		j.punctOut++
		ctx.Emit(tuple.EOS())
		return true
	}
	return false // absorbed: the bound did not advance
}

// barrierHost hooks (see barrier.go).

func (j *MultiJoin) replayData(ctx *Ctx, input int, t *tuple.Tuple) {
	j.produce(ctx, input, t)
}

func (j *MultiJoin) replayPunct(ctx *Ctx, input int, t *tuple.Tuple) {
	j.punctStep(ctx, input, t)
}

func (j *MultiJoin) barrierBound(ctx *Ctx) tuple.Time {
	j.regs.Observe(ctx.Ins)
	bound, _ := j.regs.Min()
	return bound
}

func (j *MultiJoin) emitBarrier(ctx *Ctx, id uint64, bound tuple.Time) {
	if bound > j.watermark && bound != tuple.MaxTime {
		j.watermark = bound
	}
	j.punctOut++
	ctx.barrier(id, bound)
	p := tuple.GetPunct(bound)
	p.Ckpt = id
	ctx.Emit(p)
}

func (j *MultiJoin) allEOS() bool {
	for i := 0; i < j.regs.Len(); i++ {
		if j.regs.Get(i) != tuple.MaxTime {
			return false
		}
	}
	return true
}

// produce joins the arriving tuple against the cross product of the other
// windows, emits qualifying combinations (values concatenated in input
// order, timestamp the maximum across the combination — with ordered arcs
// that is the arriving tuple's own; after an over-estimated ETS admits a
// late tuple it keeps the output identical to ordered execution), and
// inserts the tuple into its own window.
//
// Windows are probed in the current probe order (controller-tunable,
// cheapest fan-out first); for equi-joins each candidate is filtered by key
// equality at its own level, so a mismatching window prunes the enumeration
// tree immediately instead of at the full combination. Key equality is
// transitive, so per-level filtering plus the final predicate emits exactly
// the combinations the unfiltered natural-order walk would — probe order
// changes cost, never output.
func (j *MultiJoin) produce(ctx *Ctx, input int, t *tuple.Tuple) bool {
	n := len(j.wins)
	for i, w := range j.wins {
		if i != input {
			w.ExpireTo(t.Ts)
		}
	}
	var key tuple.Value
	filter := j.keyCols != nil
	if filter {
		key = t.Vals[j.keyCols[input]]
	}
	ord := j.order.Load()
	combo := make([]*tuple.Tuple, n)
	combo[input] = t
	yield := false
	var walk func(p int)
	walk = func(p int) {
		if p == n {
			if !j.pred(combo) {
				return
			}
			size := 0
			ts := t.Ts
			for _, c := range combo {
				size += len(c.Vals)
				if c.Ts > ts {
					ts = c.Ts
				}
			}
			out := j.mag.GetData(ts, size)
			vals := out.Vals[:0]
			for _, c := range combo {
				vals = append(vals, c.Vals...)
			}
			out.Vals = vals
			out.Arrived = t.Arrived
			j.dataOut++
			yield = true
			ctx.Emit(out)
			return
		}
		i := p
		if ord != nil {
			i = (*ord)[p]
		}
		if i == input {
			walk(p + 1)
			return
		}
		j.probes[i].Add(1)
		var visits, passed uint64
		j.wins[i].Each(func(o *tuple.Tuple) {
			visits++
			if filter && !o.Vals[j.keyCols[i]].Equal(key) {
				return
			}
			passed++
			combo[i] = o
			walk(p + 1)
		})
		j.visits[i].Add(visits)
		j.passed[i].Add(passed)
		combo[i] = nil
	}
	walk(0)
	j.wins[input].Insert(t)
	return yield
}
