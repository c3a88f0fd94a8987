package ops

import (
	"fmt"
	"sort"

	"repro/internal/tuple"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

const (
	// Count counts tuples (its column is ignored).
	Count AggFunc = iota
	// Sum sums a numeric column.
	Sum
	// Avg averages a numeric column.
	Avg
	// Min takes the minimum of a column.
	Min
	// Max takes the maximum of a column.
	Max
)

func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "agg(?)"
	}
}

// ParseAggFunc maps a CQL function name to an AggFunc.
func ParseAggFunc(s string) (AggFunc, error) {
	switch s {
	case "count":
		return Count, nil
	case "sum":
		return Sum, nil
	case "avg":
		return Avg, nil
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q", s)
	}
}

// AggSpec is one aggregate column: a function over an input column (Col is
// ignored for Count).
type AggSpec struct {
	Fn  AggFunc
	Col int
}

// acc accumulates one aggregate.
type acc struct {
	n    int64
	sum  float64
	min  tuple.Value
	max  tuple.Value
	seen bool
}

func (a *acc) add(v tuple.Value) {
	a.n++
	a.sum += v.AsFloat()
	if !a.seen || v.Compare(a.min) < 0 {
		a.min = v
	}
	if !a.seen || v.Compare(a.max) > 0 {
		a.max = v
	}
	a.seen = true
}

func (a *acc) result(fn AggFunc) tuple.Value {
	switch fn {
	case Count:
		return tuple.Int(a.n)
	case Sum:
		return tuple.Float(a.sum)
	case Avg:
		if a.n == 0 {
			return tuple.Value{}
		}
		return tuple.Float(a.sum / float64(a.n))
	case Min:
		return a.min
	case Max:
		return a.max
	default:
		return tuple.Value{}
	}
}

// Aggregate is a tumbling-window, event-time group-by aggregate. It is a
// *blocking* operator in the classic sense: a window's result can only be
// emitted once the operator knows no further tuple can fall into it. That
// knowledge is exactly what punctuation/ETS provides — the operator closes
// every window whose end lies at or below the current timestamp bound
// (carried by data tuples and punctuation alike), which is how on-demand ETS
// keeps even blocking aggregates live on sparse streams.
//
// Output tuples carry ts = window end and values [group?, agg0, agg1, ...].
type Aggregate struct {
	base
	width    tuple.Time
	slide    tuple.Time // window start spacing; == width for tumbling
	groupCol int        // -1: no grouping
	aggs     []AggSpec

	// buckets is keyed by window index k: window k covers
	// [k·slide, k·slide+width).
	buckets map[int64]map[tuple.Value][]*acc
	bound   tuple.Time

	rowsOut  uint64
	punctOut uint64
}

// NewAggregate builds a tumbling-window aggregate of the given width.
// groupCol is the grouping column index or -1 for a global aggregate.
func NewAggregate(name string, schema *tuple.Schema, width tuple.Time, groupCol int, aggs ...AggSpec) *Aggregate {
	return NewSlidingAggregate(name, schema, width, width, groupCol, aggs...)
}

// NewSlidingAggregate builds a hopping-window aggregate: windows of the
// given width starting every slide (slide ≤ width; slide == width is a
// tumbling window). Each tuple contributes to every window covering its
// timestamp, and a window's result is emitted — with ts = window end — once
// the timestamp bound (data or punctuation) passes that end.
func NewSlidingAggregate(name string, schema *tuple.Schema, width, slide tuple.Time, groupCol int, aggs ...AggSpec) *Aggregate {
	if width <= 0 {
		panic(fmt.Sprintf("aggregate %s: width must be positive", name))
	}
	if slide <= 0 || slide > width {
		panic(fmt.Sprintf("aggregate %s: slide must be in (0, width]", name))
	}
	if len(aggs) == 0 {
		panic(fmt.Sprintf("aggregate %s: no aggregate functions", name))
	}
	return &Aggregate{
		base:     base{name: name, inputs: 1, schema: schema},
		width:    width,
		slide:    slide,
		groupCol: groupCol,
		aggs:     aggs,
		buckets:  make(map[int64]map[tuple.Value][]*acc),
		bound:    tuple.MinTime,
	}
}

// RowsEmitted reports the number of result rows emitted.
func (a *Aggregate) RowsEmitted() uint64 { return a.rowsOut }

// OpenWindows reports the number of windows currently buffered.
func (a *Aggregate) OpenWindows() int { return len(a.buckets) }

// More reports whether the input holds a tuple.
func (a *Aggregate) More(ctx *Ctx) bool { return !ctx.Ins[0].Empty() }

// BlockingInput returns 0 when the input is empty.
func (a *Aggregate) BlockingInput(ctx *Ctx) int {
	if ctx.Ins[0].Empty() {
		return 0
	}
	return -1
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Exec consumes one input tuple; closing windows may yield several rows.
func (a *Aggregate) Exec(ctx *Ctx) bool {
	t := ctx.Ins[0].Pop()
	if t == nil {
		return false
	}
	yield := false
	if t.Ts > a.bound {
		a.bound = t.Ts
		yield = a.close(ctx, a.bound)
	}
	if t.IsPunct() {
		a.punctOut++
		if t.Ckpt != 0 {
			// Checkpoint barrier: windows at or below the bound have just
			// closed, so the snapshot taken here holds only open state.
			ctx.barrier(t.Ckpt, t.Ts)
		}
		ctx.Emit(t)
		return true
	}
	// The tuple contributes to every window k with
	// k·slide ≤ ts < k·slide + width — except windows already closed. A
	// window that was closed under an over-estimated ETS bound (the
	// estimator promises, it does not guarantee, §5) has emitted its row;
	// re-opening it would emit a duplicate, so a late tuple's contribution
	// to it is dropped instead. On-time tuples are unaffected: every
	// window covering ts ends after ts ≥ bound.
	last := floorDiv(int64(t.Ts), int64(a.slide))
	first := floorDiv(int64(t.Ts)-int64(a.width), int64(a.slide)) + 1
	for w := first; w <= last; w++ {
		if tuple.Time(w*int64(a.slide)+int64(a.width)) <= a.bound {
			continue
		}
		a.accumulate(w, t)
	}
	return yield
}

func (a *Aggregate) accumulate(w int64, t *tuple.Tuple) {
	var key tuple.Value
	if a.groupCol >= 0 {
		key = groupKey(t.Vals[a.groupCol])
	}
	groups := a.buckets[w]
	if groups == nil {
		groups = make(map[tuple.Value][]*acc)
		a.buckets[w] = groups
	}
	accs := groups[key]
	if accs == nil {
		accs = make([]*acc, len(a.aggs))
		for i := range accs {
			accs[i] = &acc{}
		}
		groups[key] = accs
	}
	for i, spec := range a.aggs {
		var v tuple.Value
		if spec.Fn == Count {
			v = tuple.Int(1)
		} else {
			v = t.Vals[spec.Col]
		}
		accs[i].add(v)
	}
}

// groupKey canonicalises v for the group map, which compares keys with Go's
// ==: a float compares there by its bits, so -0 becomes +0 to stay one group
// with it. A NaN keeps its bits, so NaNs of one bit pattern are one group.
func groupKey(v tuple.Value) tuple.Value {
	if v.Kind() == tuple.FloatKind && v.AsFloat() == 0 {
		return tuple.Float(0)
	}
	return v
}

// close emits every window whose end is ≤ bound, in window order with
// deterministic group order.
func (a *Aggregate) close(ctx *Ctx, bound tuple.Time) bool {
	var ready []int64
	for w := range a.buckets {
		end := tuple.Time(w*int64(a.slide) + int64(a.width))
		if end <= bound {
			ready = append(ready, w)
		}
	}
	if len(ready) == 0 {
		return false
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, w := range ready {
		end := tuple.Time(w*int64(a.slide) + int64(a.width))
		groups := a.buckets[w]
		keys := make([]tuple.Value, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
		for _, k := range keys {
			accs := groups[k]
			vals := make([]tuple.Value, 0, len(a.aggs)+1)
			if a.groupCol >= 0 {
				vals = append(vals, k)
			}
			for i, spec := range a.aggs {
				vals = append(vals, accs[i].result(spec.Fn))
			}
			a.rowsOut++
			ctx.Emit(&tuple.Tuple{Ts: end, Kind: tuple.Data, Vals: vals})
		}
		delete(a.buckets, w)
	}
	return true
}
