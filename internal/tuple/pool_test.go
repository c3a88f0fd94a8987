package tuple

import (
	"slices"
	"sync"
	"testing"
)

func TestPoolGetPutRoundTrip(t *testing.T) {
	tp := Get()
	tp.Ts = 42
	tp.Vals = append(tp.Vals, Int(1), Int(2))
	tp.Seq = 7
	tp.Arrived = 9
	Put(tp)

	got := Get()
	if got.Kind != Data || got.Ts != 0 || len(got.Vals) != 0 || got.Seq != 0 || got.Arrived != 0 {
		t.Fatalf("pooled tuple not cleared: %+v", got)
	}
	Put(got)
	Put(nil) // nil-safe
}

func TestPoolGetPunct(t *testing.T) {
	p := GetPunct(99)
	if !p.IsPunct() || p.Ts != 99 || len(p.Vals) != 0 {
		t.Fatalf("GetPunct = %+v", p)
	}
	Put(p)
	if e := GetPunct(MaxTime); !e.IsEOS() {
		t.Fatal("GetPunct(MaxTime) must be EOS")
	}
}

func TestPoolGetData(t *testing.T) {
	tp := Get()
	tp.Vals = append(tp.Vals, Int(1), Int(2), Int(3), Int(4))
	Put(tp)

	d := GetData(5, 2)
	if d.Ts != 5 || len(d.Vals) != 2 {
		t.Fatalf("GetData = %+v", d)
	}
	for i, v := range d.Vals {
		if !v.IsNull() {
			t.Fatalf("Vals[%d] not null after recycle: %v", i, v)
		}
	}
	big := GetData(1, 8)
	if len(big.Vals) != 8 {
		t.Fatalf("GetData growth: len=%d", len(big.Vals))
	}
}

func TestBatchPool(t *testing.T) {
	bp := NewBatchPool(16)
	b := bp.Get()
	if len(b) != 0 || cap(b) < 16 {
		t.Fatalf("batch len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, NewData(1), NewData(2))
	bp.Put(b)
	b2 := bp.Get()
	if len(b2) != 0 {
		t.Fatalf("recycled batch not empty: len=%d", len(b2))
	}
	// Entries must have been cleared (no tuple pinning).
	b2 = b2[:cap(b2)]
	for i, e := range b2 {
		if e != nil {
			t.Fatalf("recycled batch entry %d not nil", i)
		}
	}
	bp.Put(nil) // nil-safe
}

func TestBatchPoolRoundTripAllocatesNothing(t *testing.T) {
	// The race detector makes sync.Pool drop a random share of Puts, so a
	// round trip there allocates now and then; the count means nothing.
	var probe sync.Pool
	box := new(batchBox)
	for i := 0; i < 64; i++ {
		probe.Put(box)
		if probe.Get() == nil {
			t.Skip("this build's sync.Pool drops Puts")
		}
	}
	bp := NewBatchPool(64)
	tp := NewData(1)
	bp.Put(bp.Get()) // warm both pools
	if avg := testing.AllocsPerRun(1000, func() {
		b := bp.Get()
		bp.Put(append(b, tp))
	}); avg != 0 {
		t.Fatalf("BatchPool Get/Put round trip made %.2f allocations, want 0", avg)
	}
}

func TestMagazineRoundTrip(t *testing.T) {
	var m Magazine
	tp := m.Get()
	if tp.Kind != Data || tp.Ts != 0 || len(tp.Vals) != 0 {
		t.Fatalf("magazine tuple not cleared: %+v", tp)
	}
	tp.Ts = 42
	tp.Vals = append(tp.Vals, Int(1))
	tp.Seq = 3
	tp.Arrived = 9
	m.Put(tp)
	got := m.Get()
	if got != tp {
		t.Fatal("magazine must reuse the local stack before the depot")
	}
	if got.Kind != Data || got.Ts != 0 || len(got.Vals) != 0 || got.Seq != 0 || got.Arrived != 0 {
		t.Fatalf("recycled tuple not cleared: %+v", got)
	}
	m.Put(nil) // nil-safe
}

func TestMagazineGetData(t *testing.T) {
	var m Magazine
	tp := m.Get()
	tp.Vals = append(tp.Vals, Int(1), Int(2), Int(3))
	m.Put(tp)
	d := m.GetData(5, 2)
	if d.Ts != 5 || len(d.Vals) != 2 || !d.Vals[0].IsNull() || !d.Vals[1].IsNull() {
		t.Fatalf("Magazine.GetData = %+v", d)
	}
}

// drainDepot empties the shared depot of magazines other tests spilled, so a
// test of the slab path is not handed recycled tuples.
func drainDepot() {
	for magazineDepot.Get() != nil {
	}
}

// With nothing recycled at hand GetData carves tuples and value arrays from
// slabs: distinct tuples, null values, and a capacity that stops at the
// tuple's own cells, so a recycled tuple regrowing Vals cannot reach into a
// sibling's.
func TestMagazineGetDataCarvesSlabs(t *testing.T) {
	drainDepot()
	var m Magazine
	const n = 3
	seen := make(map[*Tuple]bool)
	var got []*Tuple
	for i := 0; i < 3*MagazineSize; i++ {
		d := m.GetData(Time(i), n)
		if seen[d] {
			t.Fatalf("tuple %d handed out twice", i)
		}
		seen[d] = true
		if d.Ts != Time(i) || d.Kind != Data || len(d.Vals) != n || cap(d.Vals) != n {
			t.Fatalf("carved tuple %d = %+v (cap %d)", i, d, cap(d.Vals))
		}
		for c := range d.Vals {
			if !d.Vals[c].IsNull() {
				t.Fatalf("tuple %d: value %d not null", i, c)
			}
			d.Vals[c] = Int(int64(i))
		}
		got = append(got, d)
	}
	for i, d := range got {
		for c := range d.Vals {
			if d.Vals[c].AsInt() != int64(i) {
				t.Fatalf("tuple %d shares value cells with another: %v", i, d.Vals)
			}
		}
	}
	// A recycled carved tuple wins over the slab and may grow on its own.
	m.Put(got[0])
	back := m.GetData(7, 2*n)
	if back != got[0] || len(back.Vals) != 2*n {
		t.Fatalf("recycled tuple not preferred, or not regrown: %+v", back)
	}
	if got[1].Vals[0].AsInt() != 1 {
		t.Fatal("regrowing a recycled tuple overwrote its slab neighbour")
	}
	// A wider request than the slab's rest starts a new value slab.
	wide := m.GetData(8, 5*MagazineSize*n)
	if len(wide.Vals) != 5*MagazineSize*n || !wide.Vals[len(wide.Vals)-1].IsNull() {
		t.Fatalf("wide GetData: len %d", len(wide.Vals))
	}
}

var slabProbeCells = 100 // a variable, so the make below cannot live on the stack

func TestMagazineGetDataAllocsPerSlab(t *testing.T) {
	// The race detector's instrumentation stops the compiler fusing the
	// append-of-make inside slices.Grow into one allocation; the count
	// means nothing there.
	var slab []Value
	if testing.AllocsPerRun(10, func() { slab = slices.Grow([]Value(nil), slabProbeCells) }) > 1 {
		t.Skip("this build allocates twice per slices.Grow")
	}
	_ = slab
	drainDepot()
	var m Magazine
	sink := make([]*Tuple, MagazineSize)
	avg := testing.AllocsPerRun(20, func() {
		for i := range sink { // retained, as a downstream queue would
			sink[i] = m.GetData(Time(i), 6)
		}
	})
	if avg > 2 {
		t.Fatalf("%d GetData calls made %.1f heap allocations, want ≤ 2", MagazineSize, avg)
	}
}

func TestMagazineSpill(t *testing.T) {
	// Drive the stack past two magazines' worth so the spill path runs, then
	// drain everything back out: every tuple must come back cleared and
	// distinct.
	var m Magazine
	const n = 3*MagazineSize + 5
	tuples := make([]*Tuple, n)
	for i := range tuples {
		tuples[i] = m.Get()
	}
	for _, tp := range tuples {
		tp.Ts = 7
		m.Put(tp)
	}
	if len(m.stack) > 2*MagazineSize {
		t.Fatalf("stack holds %d tuples, want ≤ %d after spills", len(m.stack), 2*MagazineSize)
	}
	seen := make(map[*Tuple]bool)
	for i := 0; i < n; i++ {
		tp := m.Get()
		if tp.Ts != 0 || tp.Kind != Data {
			t.Fatalf("tuple %d not cleared: %+v", i, tp)
		}
		if seen[tp] {
			t.Fatalf("tuple %d handed out twice", i)
		}
		seen[tp] = true
	}
}

func BenchmarkTupleMagazine(b *testing.B) {
	var m Magazine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := m.Get()
		t.Ts = Time(i)
		t.Vals = append(t.Vals, Int(int64(i)))
		m.Put(t)
	}
}

func BenchmarkTuplePool(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := Get()
		t.Ts = Time(i)
		t.Vals = append(t.Vals, Int(int64(i)))
		Put(t)
	}
}
