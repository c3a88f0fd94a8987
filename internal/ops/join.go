package ops

import (
	"fmt"

	"repro/internal/tsm"
	"repro/internal/tuple"
	"repro/internal/window"
)

// JoinPred decides whether a left tuple joins with a right tuple.
type JoinPred func(left, right *tuple.Tuple) bool

// EquiJoin returns a predicate matching tuples whose values at the given
// column positions are equal.
func EquiJoin(leftCol, rightCol int) JoinPred {
	return func(l, r *tuple.Tuple) bool {
		return l.Vals[leftCol].Equal(r.Vals[rightCol])
	}
}

// CrossJoin matches every pair.
func CrossJoin() JoinPred { return func(_, _ *tuple.Tuple) bool { return true } }

// WindowJoin is the symmetric sliding-window join of Kang, Naughton and
// Viglas, the semantics the paper adopts (§2, Figure 1; extended rules in
// Figure 6). Each side keeps a window store; a new tuple on one side joins
// against the opposite window, then enters its own window.
//
// Like Union it supports Basic, TSM and LatentMode execution. In TSM mode
// punctuation both unblocks the join (via the registers) and *expires
// opposite-window state* — the memory-saving effect the paper measures.
type WindowJoin struct {
	base
	mode IWPMode
	pred JoinPred
	regs *tsm.Registers
	win  [2]*window.Store

	// hashed equi-join state: when keyCols is set, hwin replaces win and
	// probes are O(matches) instead of a window scan. hasKeys records that
	// keyCols is meaningful (hash joins and explicit equi-joins); it is what
	// makes the join partitionable.
	hashed  bool
	hasKeys bool
	keyCols [2]int
	hwin    [2]*window.HashStore

	// mag pools the join's output tuples. Safe without synchronization: an
	// operator is single-owner, executed by one node goroutine at a time.
	mag tuple.Magazine

	// DedupPunct is as for Union.
	DedupPunct bool
	watermark  tuple.Time
	cut        cut // checkpoint barriers popped so far (TSM mode)

	dataOut  uint64
	punctOut uint64
	consumed [2]uint64
}

// NewWindowJoin builds a binary symmetric window join with a nested-loop
// probe. Both sides use the same window spec; pred decides matches.
func NewWindowJoin(name string, schema *tuple.Schema, spec window.Spec, pred JoinPred, mode IWPMode) *WindowJoin {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("join %s: %v", name, err))
	}
	j := &WindowJoin{
		base:       base{name: name, inputs: 2, schema: schema},
		mode:       mode,
		pred:       pred,
		DedupPunct: true,
		watermark:  tuple.MinTime,
	}
	j.win[0] = window.NewStore(spec)
	j.win[1] = window.NewStore(spec)
	if mode == TSM {
		j.regs = tsm.New(2)
	}
	return j
}

// NewHashWindowJoin builds a binary symmetric window equi-join whose window
// stores carry a hash index on the join columns, turning each probe from a
// window scan into an O(matches) lookup. Asymmetric per-side window specs
// are supported (the paper's "asymmetric joins", §2).
func NewHashWindowJoin(name string, schema *tuple.Schema, specL, specR window.Spec, leftCol, rightCol int, mode IWPMode) *WindowJoin {
	if err := specL.Validate(); err != nil {
		panic(fmt.Sprintf("join %s: left %v", name, err))
	}
	if err := specR.Validate(); err != nil {
		panic(fmt.Sprintf("join %s: right %v", name, err))
	}
	j := &WindowJoin{
		base:       base{name: name, inputs: 2, schema: schema},
		mode:       mode,
		hashed:     true,
		hasKeys:    true,
		keyCols:    [2]int{leftCol, rightCol},
		DedupPunct: true,
		watermark:  tuple.MinTime,
	}
	j.hwin[0] = window.NewHashStore(specL, leftCol)
	j.hwin[1] = window.NewHashStore(specR, rightCol)
	if mode == TSM {
		j.regs = tsm.New(2)
	}
	return j
}

// NewEquiWindowJoin builds a binary symmetric window equi-join with a
// nested-loop probe (every probe scans the opposite window, testing the key
// columns per pair). It trades probe cost for insert cost versus
// NewHashWindowJoin — but unlike NewWindowJoin's opaque predicate, the known
// key columns make the join partitionable, and hash-sharding it P ways cuts
// every scan to the shard's 1/P slice of the window.
func NewEquiWindowJoin(name string, schema *tuple.Schema, specL, specR window.Spec, leftCol, rightCol int, mode IWPMode) *WindowJoin {
	if err := specL.Validate(); err != nil {
		panic(fmt.Sprintf("join %s: left %v", name, err))
	}
	if err := specR.Validate(); err != nil {
		panic(fmt.Sprintf("join %s: right %v", name, err))
	}
	j := &WindowJoin{
		base:       base{name: name, inputs: 2, schema: schema},
		mode:       mode,
		pred:       EquiJoin(leftCol, rightCol),
		hasKeys:    true,
		keyCols:    [2]int{leftCol, rightCol},
		DedupPunct: true,
		watermark:  tuple.MinTime,
	}
	j.win[0] = window.NewStore(specL)
	j.win[1] = window.NewStore(specR)
	if mode == TSM {
		j.regs = tsm.New(2)
	}
	return j
}

// expireSide expires side i's window against the bound ts.
func (j *WindowJoin) expireSide(i int, ts tuple.Time) {
	if j.hashed {
		j.hwin[i].ExpireTo(ts)
	} else {
		j.win[i].ExpireTo(ts)
	}
}

// sideLen reports the live-tuple count of side i's window.
func (j *WindowJoin) sideLen(i int) int {
	if j.hashed {
		return j.hwin[i].Len()
	}
	return j.win[i].Len()
}

// Mode reports the join's execution mode.
func (j *WindowJoin) Mode() IWPMode { return j.mode }

// Window exposes the window store of side i (0 = left, 1 = right); it is
// nil for hash joins (use HashWindow).
func (j *WindowJoin) Window(i int) *window.Store { return j.win[i] }

// HashWindow exposes the hash-indexed window store of side i; it is nil
// unless the join was built with NewHashWindowJoin.
func (j *WindowJoin) HashWindow(i int) *window.HashStore { return j.hwin[i] }

// WindowLen reports the live-tuple count of side i's window, for either
// store kind.
func (j *WindowJoin) WindowLen(i int) int { return j.sideLen(i) }

// DataEmitted reports the number of joined tuples emitted.
func (j *WindowJoin) DataEmitted() uint64 { return j.dataOut }

// PunctEmitted reports the number of punctuation tuples emitted.
func (j *WindowJoin) PunctEmitted() uint64 { return j.punctOut }

// Consumed reports the number of data tuples consumed from side i.
func (j *WindowJoin) Consumed(i int) uint64 { return j.consumed[i] }

// Watermark reports the highest bound the join has conveyed downstream
// (MinTime before the first punctuation) — the overlay's live progress mark.
func (j *WindowJoin) Watermark() tuple.Time { return j.watermark }

// More implements the mode's `more` condition.
func (j *WindowJoin) More(ctx *Ctx) bool {
	switch j.mode {
	case Basic:
		return allNonEmpty(ctx.Ins)
	case TSM:
		j.regs.Observe(ctx.Ins)
		ok, _, _ := j.regs.More(ctx.Ins)
		return ok
	default:
		return anyNonEmpty(ctx.Ins) >= 0
	}
}

// BlockingInput identifies the input to backtrack into when More is false.
func (j *WindowJoin) BlockingInput(ctx *Ctx) int {
	switch j.mode {
	case Basic:
		return firstEmpty(ctx.Ins)
	case TSM:
		j.regs.Observe(ctx.Ins)
		if ok, _, _ := j.regs.More(ctx.Ins); ok {
			return -1
		}
		return j.regs.BlockingInput(ctx.Ins)
	default:
		return -1
	}
}

// Exec performs one production/consumption step per the mode's rules.
func (j *WindowJoin) Exec(ctx *Ctx) bool {
	switch j.mode {
	case Basic:
		return j.execBasic(ctx)
	case TSM:
		return j.execTSM(ctx)
	default:
		return j.execLatent(ctx)
	}
}

func (j *WindowJoin) execBasic(ctx *Ctx) bool {
	if !allNonEmpty(ctx.Ins) {
		return false
	}
	// The side whose head has the smaller (or equal) timestamp produces
	// (Figure 1; ties broken toward side 0, which the paper allows: the
	// order of simultaneous tuples is nondeterministic).
	side := 0
	if ctx.Ins[1].Peek().Ts < ctx.Ins[0].Peek().Ts {
		side = 1
	}
	t := ctx.Ins[side].Pop()
	if t.IsPunct() {
		return false
	}
	return j.produce(ctx, side, t)
}

func (j *WindowJoin) execTSM(ctx *Ctx) bool {
	j.regs.Observe(ctx.Ins)
	ok, side, τ := j.regs.More(ctx.Ins)
	if !ok {
		return false
	}
	t := ctx.Ins[side].Pop()
	if !t.IsPunct() {
		if τ > j.watermark {
			j.watermark = τ
		}
		return j.produce(ctx, side, t)
	}
	yield := passBarrier(ctx, &j.cut, j.regs, t, &j.watermark, &j.punctOut)
	return j.punctStep(ctx, side, t) || yield
}

// punctStep runs the TSM punctuation rule for a consumed punctuation with
// timestamp t.Ts on side: nothing joinable on the opposite side below t.Ts
// remains possible, so expire state and propagate the bound (Figure 6, last
// production rule).
func (j *WindowJoin) punctStep(ctx *Ctx, side int, t *tuple.Tuple) bool {
	j.expireSide(1-side, t.Ts)
	j.regs.Observe(ctx.Ins)
	bound, _ := j.regs.Min()
	if !j.DedupPunct {
		j.punctOut++
		ctx.Emit(plainPunct(t))
		return true
	}
	if bound > j.watermark && bound != tuple.MaxTime {
		j.watermark = bound
		j.punctOut++
		ctx.Emit(tuple.GetPunct(bound))
		return true
	}
	if t.IsEOS() && j.regs.Get(0) == tuple.MaxTime && j.regs.Get(1) == tuple.MaxTime {
		j.punctOut++
		ctx.Emit(tuple.EOS())
		return true
	}
	return false // absorbed: the bound did not advance
}

func (j *WindowJoin) execLatent(ctx *Ctx) bool {
	side := anyNonEmpty(ctx.Ins)
	if side < 0 {
		return false
	}
	t := ctx.Ins[side].Pop()
	if t.IsPunct() {
		return false
	}
	// Latent tuples are stamped on the fly by operators that need
	// timestamps (§5); the join needs one for window extents.
	if t.Ts == tuple.MinTime {
		t = t.WithTs(ctx.Now())
	}
	return j.produce(ctx, side, t)
}

// produce implements the production+consumption pair of Figure 1/6: join t
// (arriving on side) against the opposite window, emit matches, then move t
// into its own window. A match carries the larger of the two participants'
// timestamps: with ordered arcs that is always t's own (the opposite window
// holds nothing newer than the arriving tuple under TSM ordering), but when
// an over-estimated ETS let a late tuple through, the max keeps the output
// identical to what ordered execution would have emitted.
func (j *WindowJoin) produce(ctx *Ctx, side int, t *tuple.Tuple) bool {
	j.expireSide(1-side, t.Ts)
	yield := false
	match := func(o *tuple.Tuple) {
		var l, r *tuple.Tuple
		if side == 0 {
			l, r = t, o
		} else {
			l, r = o, t
		}
		// The hash index has matched the key columns already.
		if !j.hashed && !j.pred(l, r) {
			return
		}
		ts := t.Ts
		if o.Ts > ts {
			ts = o.Ts
		}
		// Output tuples are carved from the node-local magazine's slabs: a
		// hash join's probe loop is one of the engine's hottest allocation
		// sites.
		out := j.mag.GetData(ts, len(l.Vals)+len(r.Vals))
		copy(out.Vals, l.Vals)
		copy(out.Vals[len(l.Vals):], r.Vals)
		out.Arrived = t.Arrived
		j.dataOut++
		yield = true
		ctx.Emit(out)
	}
	if j.hashed {
		j.hwin[1-side].ProbeInsert(t, j.hwin[side], match)
	} else {
		j.win[1-side].Each(match)
		j.win[side].Insert(t)
	}
	j.consumed[side]++
	return yield
}
