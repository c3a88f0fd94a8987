package tuple

import (
	"math"
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromDuration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Errorf("FromDuration = %v, want %v", got, 1500*Millisecond)
	}
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Errorf("Duration = %v, want 2s", got)
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", got)
	}
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{MinTime, "-inf"},
		{MaxTime, "+inf"},
		{42, "42µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeOrderingSentinels(t *testing.T) {
	if !(MinTime < 0 && 0 < MaxTime) {
		t.Fatal("sentinel ordering broken")
	}
	if MinTime >= -Second || MaxTime <= Minute {
		t.Fatal("sentinels must dominate ordinary times")
	}
}

func TestNewDataAndPunct(t *testing.T) {
	d := NewData(5*Second, Int(1), String_("x"))
	if d.IsPunct() || d.Kind != Data {
		t.Fatal("NewData produced a punctuation tuple")
	}
	if d.Ts != 5*Second || len(d.Vals) != 2 {
		t.Fatalf("NewData fields wrong: %v", d)
	}
	p := NewPunct(7 * Second)
	if !p.IsPunct() || p.Vals != nil {
		t.Fatalf("NewPunct wrong: %v", p)
	}
	if p.IsEOS() {
		t.Error("ordinary punct must not be EOS")
	}
	if !EOS().IsEOS() {
		t.Error("EOS().IsEOS() = false")
	}
}

func TestTupleWithTs(t *testing.T) {
	d := NewData(1, Int(9))
	d2 := d.WithTs(99)
	if d.Ts != 1 {
		t.Error("WithTs mutated the original")
	}
	if d2.Ts != 99 || len(d2.Vals) != 1 || d2.Vals[0].AsInt() != 9 {
		t.Errorf("WithTs copy wrong: %v", d2)
	}
}

func TestTupleClone(t *testing.T) {
	d := NewData(1, Int(9), Float(2.5))
	c := d.Clone()
	c.Vals[0] = Int(100)
	if d.Vals[0].AsInt() != 9 {
		t.Error("Clone aliases Vals")
	}
	if c.Ts != d.Ts || len(c.Vals) != 2 {
		t.Errorf("Clone fields wrong: %v", c)
	}
}

func TestTupleString(t *testing.T) {
	if got := NewPunct(3).String(); got != "punct(3µs)" {
		t.Errorf("punct String = %q", got)
	}
	if got := NewData(3, Int(1)).String(); got != "tuple(3µs, 1)" {
		t.Errorf("data String = %q", got)
	}
	var nilT *Tuple
	if got := nilT.String(); got != "<nil>" {
		t.Errorf("nil String = %q", got)
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(-7); v.Kind() != IntKind || v.AsInt() != -7 {
		t.Errorf("Int: %v", v)
	}
	if v := Float(1.25); v.Kind() != FloatKind || v.AsFloat() != 1.25 {
		t.Errorf("Float: %v", v)
	}
	if v := String_("hi"); v.Kind() != StringKind || v.AsString() != "hi" {
		t.Errorf("String_: %v", v)
	}
	if v := Bool(true); v.Kind() != BoolKind || !v.AsBool() {
		t.Errorf("Bool: %v", v)
	}
	if v := TimeVal(9); v.Kind() != TimeKind || v.AsTime() != 9 {
		t.Errorf("TimeVal: %v", v)
	}
	var z Value
	if !z.IsNull() || z.Kind() != Null {
		t.Error("zero Value must be Null")
	}
}

func TestValueAccessorMismatches(t *testing.T) {
	v := String_("x")
	if v.AsInt() != 0 || v.AsFloat() != 0 || v.AsBool() || v.AsTime() != 0 {
		t.Error("mismatched accessors must return zero values")
	}
	if Int(3).AsString() != "" {
		t.Error("AsString on int must return empty")
	}
}

func TestValueNumericWidening(t *testing.T) {
	if Int(3).AsFloat() != 3.0 {
		t.Error("int should widen to float")
	}
	if TimeVal(4).AsFloat() != 4.0 {
		t.Error("time should widen to float")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.5), -1},
		{Float(2.5), Int(2), 1},
		{TimeVal(5), Int(5), 0},
		{String_("a"), String_("b"), -1},
		{String_("b"), String_("b"), 0},
		{String_("c"), String_("b"), 1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Value{}, Value{}, 0},
		// Integer payloads compare exactly, past float64's 53-bit mantissa.
		{Int(1<<53 + 1), Int(1 << 53), 1},
		{Int(-1<<53 - 1), Int(-1 << 53), -1},
		{TimeVal(1<<53 + 1), TimeVal(1 << 53), 1},
		{Int(1 << 53), TimeVal(1<<53 + 1), -1},
		{Int(math.MinInt64), Int(math.MinInt64 + 1), -1},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1},
		// Against a float the int widens, and NaN orders equal.
		{Int(1<<53 + 1), Float(1 << 53), 0},
		{Float(math.NaN()), Int(3), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(2).Equal(Float(2)) {
		t.Error("numeric cross-kind equality should hold")
	}
	if Int(2).Equal(String_("2")) {
		t.Error("int and string must not be equal")
	}
	if !String_("x").Equal(String_("x")) {
		t.Error("equal strings must be Equal")
	}
	if Int(1<<53 + 1).Equal(Int(1 << 53)) {
		t.Error("distinct int64 keys beyond 2^53 must not be Equal")
	}
}

// TestValueEqualIntransitiveAcrossIntAndFloat pins the documented cost of
// exact integer comparison: past 2^53 a float can equal two ints that are
// unequal to each other.
func TestValueEqualIntransitiveAcrossIntAndFloat(t *testing.T) {
	lo, hi, f := Int(1<<53), Int(1<<53+1), Float(1<<53)
	if !lo.Equal(f) || !hi.Equal(f) {
		t.Errorf("%v = %v: %v, %v = %v: %v; both must widen to equal the float", lo, f, lo.Equal(f), hi, f, hi.Equal(f))
	}
	if lo.Equal(hi) {
		t.Errorf("%v = %v; integer payloads must compare exactly", lo, hi)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(5), "5"},
		{Float(2.5), "2.5"},
		{String_("s"), "s"},
		{Bool(true), "true"},
		{Value{}, "null"},
		{TimeVal(7), "7µs"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	ok := []struct {
		k    ValueKind
		s    string
		want Value
	}{
		{IntKind, "42", Int(42)},
		{FloatKind, "2.5", Float(2.5)},
		{StringKind, "abc", String_("abc")},
		{BoolKind, "true", Bool(true)},
		{TimeKind, "100", TimeVal(100)},
	}
	for _, c := range ok {
		got, err := ParseValue(c.k, c.s)
		if err != nil {
			t.Errorf("ParseValue(%v, %q) error: %v", c.k, c.s, err)
			continue
		}
		if !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("ParseValue(%v, %q) = %v, want %v", c.k, c.s, got, c.want)
		}
	}
	bad := []struct {
		k ValueKind
		s string
	}{
		{IntKind, "x"}, {FloatKind, "y"}, {BoolKind, "maybe"}, {TimeKind, "z"}, {Null, "1"},
	}
	for _, c := range bad {
		if _, err := ParseValue(c.k, c.s); err == nil {
			t.Errorf("ParseValue(%v, %q) should fail", c.k, c.s)
		}
	}
}

func TestParseValueKind(t *testing.T) {
	for s, want := range map[string]ValueKind{
		"int": IntKind, "float": FloatKind, "double": FloatKind, "real": FloatKind,
		"string": StringKind, "varchar": StringKind, "text": StringKind,
		"bool": BoolKind, "boolean": BoolKind, "time": TimeKind, "timestamp": TimeKind,
	} {
		got, err := ParseValueKind(s)
		if err != nil || got != want {
			t.Errorf("ParseValueKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseValueKind("blob"); err == nil {
		t.Error("ParseValueKind(blob) should fail")
	}
}

func TestKindStrings(t *testing.T) {
	if Data.String() != "data" || Punct.String() != "punct" {
		t.Error("Kind.String wrong")
	}
	if External.String() != "external" || Internal.String() != "internal" || Latent.String() != "latent" {
		t.Error("TSKind.String wrong")
	}
}
