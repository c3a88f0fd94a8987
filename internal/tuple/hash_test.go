package tuple

import (
	"math"
	"testing"
	"unsafe"
)

// TestValueIs32Bytes pins the Value layout: a kind tag, one 64-bit payload
// (a float's bits included) and a string header. A join output of six values
// carries 192 bytes of them.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("sizeof(Value) = %d, want 32", n)
	}
}

// Hash must be consistent with Equal: values that compare equal (including
// cross-kind numeric equality) must hash equally — the hash partitioner
// routes both join inputs by value.
func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(7), Int(7)},
		{Int(7), Float(7)},
		{Int(0), Float(-0.0)}, // -0.0 == +0, must co-locate
		{TimeVal(42), Int(42)},
		{TimeVal(42), Float(42)},
		{TimeVal(-7), Float(-7)},
		{Float(math.Copysign(0, -1)), Float(0)},
		{TimeVal(0), Float(math.Copysign(0, -1))},
		// Past 2^53 an int equals the float it widens to, and hashes so.
		{Int(1<<53 + 1), Float(1 << 53)},
		{Int(1<<53 - 1), Float(1<<53 - 1)},
		{Int(-1<<53 - 1), Float(-1 << 53)},
		{Int(-1<<53 + 1), Float(-1<<53 + 1)},
		{String_("abc"), String_("abc")},
		{Bool(true), Bool(true)},
		{Value{}, Value{}},
	}
	for _, p := range pairs {
		if !p[0].Equal(p[1]) {
			t.Fatalf("%v and %v should be Equal", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("Hash(%v) != Hash(%v)", p[0], p[1])
		}
	}
}

func TestHashSpreadsDistinctValues(t *testing.T) {
	seen := make(map[uint64]Value)
	add := func(v Value) {
		h := v.Hash()
		if prev, dup := seen[h]; dup && !prev.Equal(v) {
			t.Errorf("collision: %v and %v -> %#x", prev, v, h)
		}
		seen[h] = v
	}
	for i := int64(0); i < 1000; i++ {
		add(Int(i))
	}
	add(String_("a"))
	add(String_("b"))
	add(String_("ab"))
	add(Bool(true))
	add(Bool(false))
	add(Value{})
	// Distinct kinds with disjoint payload spaces must not all collapse
	// onto one bucket: int 1 vs string "1" vs bool true.
	if Int(1).Hash() == String_("1").Hash() && Int(1).Hash() == Bool(true).Hash() {
		t.Error("kind tag not mixed into hash")
	}
}

// FuzzValueHash checks Equal ⇒ equal Hash over pairs of values of every kind.
// NaN is left out: Compare orders a NaN equal to every float, so Equal holds
// between NaN and 1 although their hashes differ, and no hash could follow
// it (see Value.Compare).
func FuzzValueHash(f *testing.F) {
	f.Add(uint8(1), int64(7), 0.0, "", uint8(2), int64(0), 7.0, "")
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", uint8(5), int64(0), 0.0, "")
	f.Add(uint8(1), int64(1<<53+1), 0.0, "", uint8(2), int64(0), float64(1<<53), "")
	f.Add(uint8(5), int64(-3), -3.0, "", uint8(0x82), int64(0), 0.0, "")
	f.Add(uint8(3), int64(0), 0.0, "ab", uint8(3), int64(0), 0.0, "ab")
	f.Add(uint8(4), int64(1), 0.0, "", uint8(4), int64(1), 0.0, "")
	f.Add(uint8(0), int64(0), 0.0, "", uint8(0), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		a, b := fuzzValue(ka, ia, fa, sa), fuzzValue(kb, ib, fb, sb)
		if kb&0x80 != 0 {
			// Cross-fed payloads: mostly Equal pairs across numeric kinds.
			b = fuzzValue(kb, int64(fa), float64(ia), sa)
		}
		if math.IsNaN(a.AsFloat()) || math.IsNaN(b.AsFloat()) {
			t.Skip("NaN is Equal to every float")
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("%v (%v) Equal %v (%v) but Hash %#x != %#x", a, a.Kind(), b, b.Kind(), a.Hash(), b.Hash())
		}
	})
}

// fuzzValue builds a Value of kind k%6 from whichever payload that kind
// takes.
func fuzzValue(k uint8, i int64, f float64, s string) Value {
	switch ValueKind(k % 6) {
	case IntKind:
		return Int(i)
	case FloatKind:
		return Float(f)
	case StringKind:
		return String_(s)
	case BoolKind:
		return Bool(i&1 != 0)
	case TimeKind:
		return TimeVal(Time(i))
	default:
		return Value{}
	}
}
