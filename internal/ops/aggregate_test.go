package ops

import (
	"maps"
	"math"
	"testing"

	"repro/internal/tuple"
)

func measure(ts tuple.Time, group int64, v float64) *tuple.Tuple {
	return tuple.NewData(ts, tuple.Int(group), tuple.Float(v))
}

func TestAggregateRejectsBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewAggregate("a", nil, 0, -1, AggSpec{Fn: Count}) },
		func() { NewAggregate("a", nil, 10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad aggregate args accepted")
				}
			}()
			fn()
		}()
	}
}

func TestAggregateGlobalCountSum(t *testing.T) {
	a := NewAggregate("a", nil, 10, -1, AggSpec{Fn: Count}, AggSpec{Fn: Sum, Col: 1})
	h := newHarness(a)
	// Window [0,10): three tuples; window [10,20): one tuple.
	h.ins[0].Push(measure(1, 0, 2))
	h.ins[0].Push(measure(5, 0, 3))
	h.ins[0].Push(measure(9, 0, 5))
	h.ins[0].Push(measure(12, 0, 7))
	h.run()
	// Data at ts=12 closes window [0,10).
	d := h.data()
	if len(d) != 1 {
		t.Fatalf("rows = %v", d)
	}
	if d[0].Ts != 10 || d[0].Vals[0].AsInt() != 3 || d[0].Vals[1].AsFloat() != 10 {
		t.Fatalf("row = %v", d[0])
	}
	if a.OpenWindows() != 1 {
		t.Errorf("open windows = %d", a.OpenWindows())
	}
	// Punctuation at 20 closes [10,20) — the blocking-operator benefit of
	// ETS: the sparse tail is flushed without waiting for more data.
	h.ins[0].Push(tuple.NewPunct(20))
	h.run()
	d = h.data()
	if len(d) != 2 || d[1].Ts != 20 || d[1].Vals[0].AsInt() != 1 {
		t.Fatalf("rows after punct = %v", d)
	}
	// The punctuation itself is forwarded after the rows it released.
	p := h.puncts()
	if len(p) != 1 || p[0].Ts != 20 {
		t.Fatalf("puncts = %v", p)
	}
	if a.RowsEmitted() != 2 {
		t.Errorf("RowsEmitted = %d", a.RowsEmitted())
	}
}

func TestAggregateGroupBy(t *testing.T) {
	a := NewAggregate("a", nil, 10, 0,
		AggSpec{Fn: Min, Col: 1}, AggSpec{Fn: Max, Col: 1}, AggSpec{Fn: Avg, Col: 1})
	h := newHarness(a)
	h.ins[0].Push(measure(1, 1, 10))
	h.ins[0].Push(measure(2, 2, 100))
	h.ins[0].Push(measure(3, 1, 20))
	h.ins[0].Push(tuple.NewPunct(10))
	h.run()
	d := h.data()
	if len(d) != 2 {
		t.Fatalf("rows = %v", d)
	}
	// Deterministic group order: group 1 before group 2.
	g1, g2 := d[0], d[1]
	if g1.Vals[0].AsInt() != 1 || g2.Vals[0].AsInt() != 2 {
		t.Fatalf("group order: %v", d)
	}
	if g1.Vals[1].AsFloat() != 10 || g1.Vals[2].AsFloat() != 20 || g1.Vals[3].AsFloat() != 15 {
		t.Fatalf("group 1 aggs = %v", g1.Vals)
	}
	if g2.Vals[1].AsFloat() != 100 || g2.Vals[2].AsFloat() != 100 || g2.Vals[3].AsFloat() != 100 {
		t.Fatalf("group 2 aggs = %v", g2.Vals)
	}
}

func TestAggregateMultipleWindowsCloseInOrder(t *testing.T) {
	a := NewAggregate("a", nil, 10, -1, AggSpec{Fn: Count})
	h := newHarness(a)
	h.ins[0].Push(measure(5, 0, 1))
	h.ins[0].Push(measure(15, 0, 1))
	h.ins[0].Push(measure(25, 0, 1))
	h.ins[0].Push(tuple.NewPunct(100))
	h.run()
	d := h.data()
	if len(d) != 3 {
		t.Fatalf("rows = %v", d)
	}
	for i, wantTs := range []tuple.Time{10, 20, 30} {
		if d[i].Ts != wantTs {
			t.Fatalf("window close order: %v", d)
		}
	}
	if a.OpenWindows() != 0 {
		t.Errorf("open windows = %d", a.OpenWindows())
	}
}

func TestAggregateOutputTimestampsOrdered(t *testing.T) {
	// The output arc must be timestamp-ordered even when rows and
	// forwarded punctuation interleave.
	a := NewAggregate("a", nil, 10, -1, AggSpec{Fn: Count})
	h := newHarness(a)
	h.ins[0].Push(measure(5, 0, 1))
	h.ins[0].Push(tuple.NewPunct(10))
	h.ins[0].Push(measure(15, 0, 1))
	h.ins[0].Push(tuple.NewPunct(20))
	h.run()
	prev := tuple.MinTime
	for _, o := range h.out {
		if o.Ts < prev {
			t.Fatalf("output disordered: %v", h.out)
		}
		prev = o.Ts
	}
}

func TestParseAggFunc(t *testing.T) {
	for s, want := range map[string]AggFunc{
		"count": Count, "sum": Sum, "avg": Avg, "min": Min, "max": Max,
	} {
		got, err := ParseAggFunc(s)
		if err != nil || got != want {
			t.Errorf("ParseAggFunc(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestAggregateEmptyAvgIsNull(t *testing.T) {
	var a acc
	if !a.result(Avg).IsNull() {
		t.Error("avg of nothing must be null")
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 10, 0}, {10, 10, 1}, {19, 10, 1}, {-1, 10, -1}, {-10, 10, -1}, {-11, 10, -2},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSlidingAggregateValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero slide": func() { NewSlidingAggregate("a", nil, 10, 0, -1, AggSpec{Fn: Count}) },
		"slide > width": func() {
			NewSlidingAggregate("a", nil, 10, 20, -1, AggSpec{Fn: Count})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestSlidingAggregateOverlap(t *testing.T) {
	// Width 10, slide 5: windows [0,10), [5,15), [10,20), ...
	a := NewSlidingAggregate("a", nil, 10, 5, -1, AggSpec{Fn: Count})
	h := newHarness(a)
	h.ins[0].Push(measure(7, 0, 1))  // in windows starting 0 and 5
	h.ins[0].Push(measure(12, 0, 1)) // in windows starting 5 and 10
	h.ins[0].Push(tuple.NewPunct(100))
	h.run()
	d := h.data()
	// Windows: [0,10): count 1 (ts 7); [5,15): count 2 (7, 12);
	// [10,20): count 1 (12).
	if len(d) != 3 {
		t.Fatalf("rows = %v", d)
	}
	wantEnd := []tuple.Time{10, 15, 20}
	wantCount := []int64{1, 2, 1}
	for i := range d {
		if d[i].Ts != wantEnd[i] || d[i].Vals[0].AsInt() != wantCount[i] {
			t.Fatalf("row %d = %v, want end %v count %d", i, d[i], wantEnd[i], wantCount[i])
		}
	}
}

func TestSlidingAggregateTumblingEquivalence(t *testing.T) {
	// slide == width must behave exactly like NewAggregate.
	mk := func(slide bool) []*tuple.Tuple {
		var a *Aggregate
		if slide {
			a = NewSlidingAggregate("a", nil, 10, 10, -1, AggSpec{Fn: Count}, AggSpec{Fn: Sum, Col: 1})
		} else {
			a = NewAggregate("a", nil, 10, -1, AggSpec{Fn: Count}, AggSpec{Fn: Sum, Col: 1})
		}
		h := newHarness(a)
		for _, ts := range []tuple.Time{1, 5, 9, 12, 25} {
			h.ins[0].Push(measure(ts, 0, float64(ts)))
		}
		h.ins[0].Push(tuple.NewPunct(100))
		h.run()
		return h.data()
	}
	x, y := mk(false), mk(true)
	if len(x) != len(y) {
		t.Fatalf("row counts differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i].Ts != y[i].Ts || x[i].Vals[0].AsInt() != y[i].Vals[0].AsInt() ||
			x[i].Vals[1].AsFloat() != y[i].Vals[1].AsFloat() {
			t.Fatalf("row %d differs: %v vs %v", i, x[i], y[i])
		}
	}
}

// TestAggregateFloatGroupKeys pins the group identity of float keys: -0 and
// +0 are one group (they are Equal), reported as +0, and NaNs of one bit
// pattern are one group.
func TestAggregateFloatGroupKeys(t *testing.T) {
	a := NewAggregate("a", nil, 10, 0, AggSpec{Fn: Count})
	h := newHarness(a)
	for i, k := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.NaN(), 1} {
		h.ins[0].Push(tuple.NewData(tuple.Time(i), tuple.Float(k)))
	}
	h.ins[0].Push(tuple.NewPunct(10))
	h.run()
	counts := map[string]int64{}
	for _, r := range h.data() {
		k := r.Vals[0].AsFloat()
		if k == 0 && math.Signbit(k) {
			t.Errorf("group key -0 emitted, want +0")
		}
		counts[r.Vals[0].String()] += r.Vals[1].AsInt()
	}
	if want := map[string]int64{"0": 2, "NaN": 2, "1": 1}; len(h.data()) != len(want) || !maps.Equal(counts, want) {
		t.Fatalf("groups %v in %d rows, want %v", counts, len(h.data()), want)
	}
}
