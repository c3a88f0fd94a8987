package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// ValueKind enumerates the attribute types supported by the engine.
type ValueKind uint8

const (
	// Null is the zero Value.
	Null ValueKind = iota
	// IntKind holds a 64-bit signed integer.
	IntKind
	// FloatKind holds a 64-bit float.
	FloatKind
	// StringKind holds a string.
	StringKind
	// BoolKind holds a boolean.
	BoolKind
	// TimeKind holds a virtual-time value (e.g. an application timestamp
	// attribute for externally timestamped streams).
	TimeKind
)

func (k ValueKind) String() string {
	switch k {
	case Null:
		return "null"
	case IntKind:
		return "int"
	case FloatKind:
		return "float"
	case StringKind:
		return "string"
	case BoolKind:
		return "bool"
	case TimeKind:
		return "time"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// ParseValueKind maps a type name (as written in CQL schemas) to a ValueKind.
func ParseValueKind(s string) (ValueKind, error) {
	switch s {
	case "int":
		return IntKind, nil
	case "float", "double", "real":
		return FloatKind, nil
	case "string", "varchar", "text":
		return StringKind, nil
	case "bool", "boolean":
		return BoolKind, nil
	case "time", "timestamp":
		return TimeKind, nil
	default:
		return Null, fmt.Errorf("unknown type %q", s)
	}
}

// Value is a compact tagged union holding one attribute value, 32 bytes on
// a 64-bit machine. The zero Value is Null. Values are comparable with
// Compare and Equal; the engine never compares values of different kinds
// except against Null. Go's == compares a float by its bits, so Float(-0)
// and Float(+0) differ under == (but are Equal), and a NaN is == to a NaN
// of the same bits.
type Value struct {
	kind ValueKind
	i    int64 // IntKind, BoolKind (0/1), TimeKind; FloatKind's IEEE bits
	s    string
}

// Int returns an integer Value.
func Int(v int64) Value { return Value{kind: IntKind, i: v} }

// Float returns a float Value.
func Float(v float64) Value { return Value{kind: FloatKind, i: int64(math.Float64bits(v))} }

// String_ returns a string Value. (Named with a trailing underscore because
// Value already has a String() method satisfying fmt.Stringer.)
func String_(v string) Value { return Value{kind: StringKind, s: v} }

// Bool returns a boolean Value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: BoolKind, i: i}
}

// TimeVal returns a virtual-time Value.
func TimeVal(v Time) Value { return Value{kind: TimeKind, i: int64(v)} }

// Kind reports the kind of v.
func (v Value) Kind() ValueKind { return v.kind }

// IsNull reports whether v is the Null value.
func (v Value) IsNull() bool { return v.kind == Null }

// AsInt returns the integer payload; it is 0 unless Kind is IntKind.
func (v Value) AsInt() int64 {
	if v.kind == IntKind {
		return v.i
	}
	return 0
}

// AsFloat returns the numeric payload as a float64. Integer and time values
// are widened; other kinds return 0.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case FloatKind:
		return math.Float64frombits(uint64(v.i))
	case IntKind, TimeKind:
		return float64(v.i)
	default:
		return 0
	}
}

// AsString returns the string payload; it is "" unless Kind is StringKind.
func (v Value) AsString() string {
	if v.kind == StringKind {
		return v.s
	}
	return ""
}

// AsBool returns the boolean payload; it is false unless Kind is BoolKind.
func (v Value) AsBool() bool { return v.kind == BoolKind && v.i != 0 }

// AsTime returns the time payload; it is 0 unless Kind is TimeKind.
func (v Value) AsTime() Time {
	if v.kind == TimeKind {
		return Time(v.i)
	}
	return 0
}

// Equal reports whether v and o hold the same kind and payload, except that
// numeric kinds (int, float, time) compare by numeric value.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 && v.comparable_(o) }

func (v Value) comparable_(o Value) bool {
	if v.kind == o.kind {
		return true
	}
	return v.isNumeric() && o.isNumeric()
}

func (v Value) isNumeric() bool {
	return v.kind == IntKind || v.kind == FloatKind || v.kind == TimeKind
}

// Compare orders v against o: -1, 0, +1. Null sorts before everything;
// values of incomparable kinds order by kind tag (stable but arbitrary).
// Two integer payloads (int, time) compare as int64, exactly; a float
// against any numeric kind compares as float64, where NaN orders equal.
// Mixing the two makes Compare, and so Equal, intransitive past 2^53:
// Int(2^53+1) and Int(2^53) both equal Float(2^53) but not each other. A sort
// or equality grouping over keys that mix ints and floats of that size may
// therefore order or group them inconsistently; keys of one kind are exact.
// A NaN compares equal to every float, so Equal holds between Float(NaN) and
// Float(1) although no hash can follow it: Hash is consistent with Equal
// everywhere except for NaN.
func (v Value) Compare(o Value) int {
	if v.isNumeric() && o.isNumeric() {
		if v.kind != FloatKind && o.kind != FloatKind {
			switch {
			case v.i < o.i:
				return -1
			case v.i > o.i:
				return 1
			default:
				return 0
			}
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		switch {
		case v.kind < o.kind:
			return -1
		default:
			return 1
		}
	}
	switch v.kind {
	case Null:
		return 0
	case StringKind:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	case BoolKind:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Hash returns a 64-bit hash of v, consistent with Equal: values that compare
// equal hash equally, NaN excepted (see Compare). Numeric kinds (int, float,
// time) are equal by numeric value, so they hash through their float64
// widening, with -0 normalized to +0; the hash partitioner relies on this so
// that an int key on one join input co-locates with a float key on the other.
// The widening is also how Compare meets an int with a float, so ints past
// 2^53 stay consistent: Int(2^53+1) hashes like the Float(2^53) it equals.
// Each hash ends in one splitmix64 finalizer, whose low bits are as good as
// its high ones (Split routes on hash % buckets).
func (v Value) Hash() uint64 {
	switch {
	case v.isNumeric():
		f := v.AsFloat()
		if f == 0 {
			f = 0 // normalize -0.0: it compares equal to +0.0
		}
		return mix64(math.Float64bits(f))
	case v.kind == StringKind:
		h := uint64(14695981039346656037) // FNV-1a
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * 1099511628211
		}
		return mix64(h)
	default:
		// Null and bool hash their kind tag and payload, complemented so
		// that Null does not share numeric zero's hash.
		return mix64(^(uint64(v.kind)<<56 | uint64(v.i)))
	}
}

// mix64 is splitmix64's finalizer: a bijection on uint64 whose every output
// bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// String renders v for debugging and CSV output.
func (v Value) String() string {
	switch v.kind {
	case Null:
		return "null"
	case IntKind:
		return strconv.FormatInt(v.i, 10)
	case FloatKind:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case StringKind:
		return v.s
	case BoolKind:
		return strconv.FormatBool(v.i != 0)
	case TimeKind:
		return Time(v.i).String()
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// ParseValue parses s as a value of the requested kind (used by the CSV
// wrapper and the CQL literal parser).
func ParseValue(kind ValueKind, s string) (Value, error) {
	switch kind {
	case IntKind:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int %q: %w", s, err)
		}
		return Int(i), nil
	case FloatKind:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float %q: %w", s, err)
		}
		return Float(f), nil
	case StringKind:
		return String_(s), nil
	case BoolKind:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	case TimeKind:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse time %q: %w", s, err)
		}
		return TimeVal(Time(i)), nil
	default:
		return Value{}, fmt.Errorf("cannot parse into kind %v", kind)
	}
}
