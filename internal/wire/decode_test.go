package wire

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/tuple"
)

var growProbeCells = 100 // a variable, so the make below cannot live on the stack

// TestReaderNextAllocsPerTuple pins the decode cost the saturated network
// path pays: a reader whose tuples are never released (the engine does not
// recycle) must still decode 256-tuple TUPLES frames for a few slab
// allocations each, not four allocations per tuple.
func TestReaderNextAllocsPerTuple(t *testing.T) {
	// Under the race detector slices.Grow allocates twice and a slab costs
	// double; the count means nothing there (as in tuple's magazine test).
	var probe []tuple.Value
	if testing.AllocsPerRun(10, func() { probe = slices.Grow([]tuple.Value(nil), growProbeCells) }) > 1 {
		t.Skip("this build allocates twice per slices.Grow")
	}
	_ = probe
	const frame, runs = 256, 40
	in := Tuples{ID: 1}
	for i := 0; i < frame; i++ {
		in.Batch = append(in.Batch, tuple.NewData(tuple.Time(i), tuple.Int(int64(i)), tuple.Int(7), tuple.Int(-1)))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < runs+1; i++ { // AllocsPerRun makes one warm-up call
		if err := w.WriteFrame(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(&buf)
	kept := make([]*tuple.Tuple, 0, (runs+1)*frame) // retained, as a downstream queue would
	var first *tuple.Tuple
	var slot **tuple.Tuple
	avg := testing.AllocsPerRun(runs, func() {
		f, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		b := f.(Tuples).Batch
		if len(b) != frame {
			t.Fatalf("decoded %d tuples, want %d", len(b), frame)
		}
		if slot != nil && (slot != &b[0] || b[0] == first) {
			t.Fatal("Reader did not reuse its batch slice for fresh tuples")
		}
		slot, first = &b[0], b[0]
		kept = append(kept, b...)
	})
	if perTuple := avg / frame; perTuple > 0.1 {
		t.Fatalf("%.2f allocations per decoded tuple, want ≤ 0.1", perTuple)
	}
	for i, tp := range kept {
		if want := int64(i % frame); tp.Ts != tuple.Time(want) || len(tp.Vals) != 3 || tp.Vals[0].AsInt() != want || tp.Vals[2].AsInt() != -1 {
			t.Fatalf("tuple %d decoded as %+v", i, tp)
		}
	}
}

// TestDecodeWideTupleIsNotCarved covers the hostile-input bound: a tuple of
// maxArity values decodes correctly, and the reader pays for one value array
// of that size, not for a magazine slab of MagazineSize such arrays.
func TestDecodeWideTupleIsNotCarved(t *testing.T) {
	vals := make([]tuple.Value, maxArity)
	for i := range vals {
		vals[i] = tuple.Int(int64(i))
	}
	payload := Tuple{ID: 9, T: tuple.NewData(5, vals...)}.encode(nil)
	const cell = int(unsafe.Sizeof(tuple.Value{}))

	var mag tuple.Magazine
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := DecodeFrame(TypeTuple, payload, &mag)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := f.(Tuple).T
	if got.Ts != 5 || len(got.Vals) != maxArity {
		t.Fatalf("decoded ts %d with %d values", got.Ts, len(got.Vals))
	}
	for i, v := range got.Vals {
		if v.AsInt() != int64(i) {
			t.Fatalf("value %d = %v", i, v)
		}
	}
	// One array, or two where the race detector keeps slices.Grow from
	// fusing its append-of-make.
	if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*maxArity*cell); spent > limit {
		t.Fatalf("decoding a %d-value tuple allocated %d bytes, want ≤ %d (a carved slab is %d)",
			maxArity, spent, limit, tuple.MagazineSize*maxArity*cell)
	}

	// One value past the cap is refused before anything is allocated.
	over := Tuple{ID: 9, T: tuple.NewData(5, append(vals, tuple.Int(0))...)}.encode(nil)
	if _, err := DecodeFrame(TypeTuple, over, &mag); err == nil {
		t.Fatal("a tuple wider than maxArity decoded")
	}

	// Just past carveArity the exact-size path serves narrow tuples too, and
	// a released one is reused for the next.
	mid := Tuple{ID: 9, T: tuple.NewData(6, vals[:carveArity+1]...)}.encode(nil)
	f, err = DecodeFrame(TypeTuple, mid, &mag)
	if err != nil {
		t.Fatal(err)
	}
	a := f.(Tuple).T
	if len(a.Vals) != carveArity+1 || a.Vals[carveArity].AsInt() != carveArity {
		t.Fatalf("decoded %d values", len(a.Vals))
	}
	mag.Put(a)
	f, err = DecodeFrame(TypeTuple, mid, &mag)
	if err != nil {
		t.Fatal(err)
	}
	if b := f.(Tuple).T; b != a || len(b.Vals) != carveArity+1 || b.Vals[1].AsInt() != 1 {
		t.Fatalf("released tuple not reused intact: %p vs %p, %d values", b, a, len(b.Vals))
	}
}
