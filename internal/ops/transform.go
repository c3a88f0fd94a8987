package ops

import (
	"repro/internal/tuple"
)

// Predicate decides whether a data tuple passes a selection.
type Predicate func(*tuple.Tuple) bool

// Mapper transforms a data tuple into another data tuple (or nil to drop
// it). Implementations must not mutate the input.
type Mapper func(*tuple.Tuple) *tuple.Tuple

// unary is the common machinery of single-input, non-IWP operators: the
// straightforward execution of §2 — produce the result with the input
// tuple's timestamp and consume the input — extended with punctuation
// pass-through (§4.2: non-IWP operators let punctuation tuples go through
// unchanged).
type unary struct {
	base
	apply func(*tuple.Tuple, *Ctx) bool // returns yield

	inData  uint64
	inPunct uint64
	out     uint64
}

func (u *unary) More(ctx *Ctx) bool { return !ctx.Ins[0].Empty() }

func (u *unary) BlockingInput(ctx *Ctx) int {
	if ctx.Ins[0].Empty() {
		return 0
	}
	return -1
}

func (u *unary) Exec(ctx *Ctx) bool {
	t := ctx.Ins[0].Pop()
	if t == nil {
		return false
	}
	if t.IsPunct() {
		u.inPunct++
		if t.Ckpt != 0 {
			// Stateless transforms have nothing to snapshot, but the engine
			// still counts every node's barrier application for completion.
			ctx.barrier(t.Ckpt, t.Ts)
		}
		ctx.Emit(t)
		return true
	}
	u.inData++
	yield := u.apply(t, ctx)
	if yield {
		u.out++
	}
	return yield
}

// Processed reports the number of data tuples consumed.
func (u *unary) Processed() uint64 { return u.inData }

// Emitted reports the number of data tuples produced.
func (u *unary) Emitted() uint64 { return u.out }

// Select is the selection operator σ: data tuples satisfying the predicate
// pass through unchanged; the rest are consumed silently. Punctuation always
// passes — a selection never weakens a timestamp bound.
type Select struct{ unary }

// NewSelect builds a selection operator.
func NewSelect(name string, schema *tuple.Schema, pred Predicate) *Select {
	s := &Select{}
	s.base = base{name: name, inputs: 1, schema: schema}
	s.apply = func(t *tuple.Tuple, ctx *Ctx) bool {
		if pred(t) {
			ctx.Emit(t)
			return true
		}
		return false
	}
	return s
}

// Project is the projection operator π: it re-arranges a tuple's values
// according to a column index list computed by Schema.Project.
type Project struct {
	unary
	idx []int
}

// NewProject builds a projection keeping the columns at idx, in order.
func NewProject(name string, schema *tuple.Schema, idx []int) *Project {
	p := &Project{idx: append([]int(nil), idx...)}
	p.base = base{name: name, inputs: 1, schema: schema}
	p.apply = func(t *tuple.Tuple, ctx *Ctx) bool {
		vals := make([]tuple.Value, len(p.idx))
		for i, j := range p.idx {
			vals[i] = t.Vals[j]
		}
		out := &tuple.Tuple{Ts: t.Ts, Kind: tuple.Data, Vals: vals, Arrived: t.Arrived, Seq: t.Seq}
		ctx.Emit(out)
		return true
	}
	return p
}

// Map applies an arbitrary tuple-to-tuple function; returning nil drops the
// tuple. The mapper must preserve the timestamp (the engine enforces arc
// order by construction, not by re-sorting).
type Map struct{ unary }

// NewMap builds a map operator.
func NewMap(name string, schema *tuple.Schema, fn Mapper) *Map {
	m := &Map{}
	m.base = base{name: name, inputs: 1, schema: schema}
	m.apply = func(t *tuple.Tuple, ctx *Ctx) bool {
		out := fn(t)
		if out == nil {
			return false
		}
		if out.Ts != t.Ts {
			out = out.WithTs(t.Ts)
		}
		ctx.Emit(out)
		return true
	}
	return m
}
