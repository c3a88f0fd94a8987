package cql

import (
	"fmt"

	"repro/internal/tuple"
)

// Compiled is a compiled expression: an evaluator over tuples of the schema
// it was compiled against, plus the inferred result kind and a derived name
// for select lists.
type Compiled struct {
	Eval func(*tuple.Tuple) tuple.Value
	Kind tuple.ValueKind
	Name string
}

// CompileExpr compiles e against the schema, resolving column references and
// inferring result kinds.
func CompileExpr(e Expr, sch *tuple.Schema) (Compiled, error) {
	n, err := compile(e, sch)
	if err != nil {
		return Compiled{}, err
	}
	return Compiled{Eval: n.boxed(), Kind: n.kind, Name: n.name}, nil
}

// CompilePredicate compiles e and requires a boolean result.
func CompilePredicate(e Expr, sch *tuple.Schema) (func(*tuple.Tuple) bool, error) {
	n, err := compile(e, sch)
	if err != nil {
		return nil, err
	}
	if n.kind != tuple.BoolKind {
		return nil, fmt.Errorf("cql: WHERE expression must be boolean, got %v", n.kind)
	}
	return n.b, nil
}

// An expression compiles to a tree of kind-specialised nodes. An int, time,
// float or string node evaluates to an unboxed payload and a flag saying
// whether its value is a plain value of the node's kind; a bool node
// evaluates to its AsBool. The payload is what the kind's Value accessor
// returns (AsInt, AsTime, AsFloat, AsString), which is all an arithmetic
// operator reads of its operands. A comparison needs more only when an
// operand is not plain: then it builds both operands' Values and applies
// Value.Compare, as it always does for kinds without a payload type (null
// literals). Only two things are ever not plain: a column holding Null or a
// kind its schema did not declare, and the Null a zero divisor yields.
type node struct {
	kind tuple.ValueKind
	name string
	col  int          // column index of a column reference, else -1
	lit  *tuple.Value // value of a literal, else nil

	i eval[int64]             // IntKind (AsInt) and TimeKind (AsTime)
	f eval[float64]           // FloatKind
	s eval[string]            // StringKind
	b func(*tuple.Tuple) bool // BoolKind
}

// eval evaluates a node to its payload and whether its value is plain.
type eval[T int64 | float64 | string] func(*tuple.Tuple) (T, bool)

func compile(e Expr, sch *tuple.Schema) (*node, error) {
	switch x := e.(type) {
	case *LitExpr:
		return literal(x.Val), nil
	case *ColExpr:
		idx, f, err := resolveCol(x.Ref, sch)
		if err != nil {
			return nil, err
		}
		return column(idx, f), nil
	case *UnaryExpr:
		return compileUnary(x, sch)
	case *BinaryExpr:
		return compileBinary(x, sch)
	default:
		return nil, fmt.Errorf("cql: unknown expression node %T", e)
	}
}

func compileUnary(x *UnaryExpr, sch *tuple.Schema) (*node, error) {
	in, err := compile(x.X, sch)
	if err != nil {
		return nil, err
	}
	n := &node{kind: in.kind, col: -1}
	switch x.Op {
	case "not":
		if in.kind != tuple.BoolKind {
			return nil, errf(x.Pos, "NOT requires a boolean, got %v", in.kind)
		}
		n.name = "not " + in.name
		ev := in.b
		n.b = func(t *tuple.Tuple) bool { return !ev(t) }
	case "-":
		n.name = "-" + in.name
		switch in.kind {
		case tuple.IntKind:
			n.i = negate(in.i)
		case tuple.FloatKind:
			n.f = negate(in.f)
		default:
			return nil, errf(x.Pos, "unary minus requires a number, got %v", in.kind)
		}
	default:
		return nil, errf(x.Pos, "unknown unary operator %q", x.Op)
	}
	return n, nil
}

func compileBinary(x *BinaryExpr, sch *tuple.Schema) (*node, error) {
	l, err := compile(x.Left, sch)
	if err != nil {
		return nil, err
	}
	r, err := compile(x.Right, sch)
	if err != nil {
		return nil, err
	}
	n := &node{name: fmt.Sprintf("(%s %s %s)", l.name, x.Op, r.name), col: -1}
	switch x.Op {
	case "and", "or":
		if l.kind != tuple.BoolKind || r.kind != tuple.BoolKind {
			return nil, errf(x.Pos, "%s requires booleans, got %v and %v", x.Op, l.kind, r.kind)
		}
		n.kind = tuple.BoolKind
		lb, rb := l.b, r.b
		if x.Op == "and" {
			n.b = func(t *tuple.Tuple) bool { return lb(t) && rb(t) }
		} else {
			n.b = func(t *tuple.Tuple) bool { return lb(t) || rb(t) }
		}
	case "=", "!=", "<", "<=", ">", ">=":
		if !comparable(l.kind, r.kind) {
			return nil, errf(x.Pos, "cannot compare %v with %v", l.kind, r.kind)
		}
		n.kind = tuple.BoolKind
		n.b = compare(cmpMask[x.Op], l, r)
	case "+", "-", "*", "/", "%":
		if !numeric(l.kind) || !numeric(r.kind) {
			return nil, errf(x.Pos, "%s requires numbers, got %v and %v", x.Op, l.kind, r.kind)
		}
		switch {
		case x.Op == "%":
			if l.kind != tuple.IntKind || r.kind != tuple.IntKind {
				return nil, errf(x.Pos, "%% requires integers")
			}
			n.kind = tuple.IntKind
			n.i = modulo(l.i, r.i, r.lit != nil)
		case l.kind == tuple.IntKind && r.kind == tuple.IntKind && x.Op != "/":
			n.kind = tuple.IntKind
			n.i = arith(x.Op, l.i, r.i, r.lit != nil)
		default:
			n.kind = tuple.FloatKind
			n.f = arith(x.Op, asFloat(l), asFloat(r), r.lit != nil)
		}
	default:
		return nil, errf(x.Pos, "unknown operator %q", x.Op)
	}
	return n, nil
}

// column compiles a reference to column idx, declared as f.
func column(idx int, f tuple.Field) *node {
	n := &node{kind: f.Kind, name: f.Name, col: idx}
	switch f.Kind {
	case tuple.IntKind:
		n.i = func(t *tuple.Tuple) (int64, bool) {
			v := &t.Vals[idx]
			return v.AsInt(), v.Kind() == tuple.IntKind
		}
	case tuple.TimeKind:
		n.i = func(t *tuple.Tuple) (int64, bool) {
			v := &t.Vals[idx]
			return int64(v.AsTime()), v.Kind() == tuple.TimeKind
		}
	case tuple.FloatKind:
		n.f = func(t *tuple.Tuple) (float64, bool) {
			v := &t.Vals[idx]
			return v.AsFloat(), v.Kind() == tuple.FloatKind
		}
	case tuple.StringKind:
		n.s = func(t *tuple.Tuple) (string, bool) {
			v := &t.Vals[idx]
			return v.AsString(), v.Kind() == tuple.StringKind
		}
	case tuple.BoolKind:
		n.b = func(t *tuple.Tuple) bool { return t.Vals[idx].AsBool() }
	}
	return n
}

// literal compiles the literal v: a node of v's kind whose value is always v,
// and always plain.
func literal(v tuple.Value) *node {
	n := &node{kind: v.Kind(), name: v.String(), col: -1, lit: &v}
	switch v.Kind() {
	case tuple.IntKind:
		x := v.AsInt()
		n.i = func(*tuple.Tuple) (int64, bool) { return x, true }
	case tuple.TimeKind:
		x := int64(v.AsTime())
		n.i = func(*tuple.Tuple) (int64, bool) { return x, true }
	case tuple.FloatKind:
		x := v.AsFloat()
		n.f = func(*tuple.Tuple) (float64, bool) { return x, true }
	case tuple.StringKind:
		x := v.AsString()
		n.s = func(*tuple.Tuple) (string, bool) { return x, true }
	case tuple.BoolKind:
		x := v.AsBool()
		n.b = func(*tuple.Tuple) bool { return x }
	}
	return n
}

// boxed returns an evaluator of n's Value.
func (n *node) boxed() func(*tuple.Tuple) tuple.Value {
	switch {
	case n.col >= 0:
		idx := n.col
		return func(t *tuple.Tuple) tuple.Value { return t.Vals[idx] }
	case n.lit != nil:
		v := *n.lit
		return func(*tuple.Tuple) tuple.Value { return v }
	}
	// An operator yields an int, a float or a bool; an int or float that is
	// not plain is the Null of a zero divisor.
	switch n.kind {
	case tuple.IntKind:
		ev := n.i
		return func(t *tuple.Tuple) tuple.Value {
			if x, ok := ev(t); ok {
				return tuple.Int(x)
			}
			return tuple.Value{}
		}
	case tuple.FloatKind:
		ev := n.f
		return func(t *tuple.Tuple) tuple.Value {
			if x, ok := ev(t); ok {
				return tuple.Float(x)
			}
			return tuple.Value{}
		}
	default:
		ev := n.b
		return func(t *tuple.Tuple) tuple.Value { return tuple.Bool(ev(t)) }
	}
}

// asFloat returns an evaluator of a numeric node's AsFloat, with the node's
// plain flag.
func asFloat(n *node) eval[float64] {
	switch {
	case n.kind == tuple.FloatKind:
		return n.f
	case n.col >= 0:
		// AsFloat widens whichever numeric kind the column holds.
		idx, k := n.col, n.kind
		return func(t *tuple.Tuple) (float64, bool) {
			v := &t.Vals[idx]
			return v.AsFloat(), v.Kind() == k
		}
	default:
		// Not plain is Null here, and its payload 0 is Null's AsFloat.
		ev := n.i
		return func(t *tuple.Tuple) (float64, bool) {
			x, ok := ev(t)
			return float64(x), ok
		}
	}
}

// asOrdinal returns an evaluator of a bool node as Compare orders booleans
// (false 0, true 1), with the node's plain flag.
func asOrdinal(n *node) eval[int64] {
	ord := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	if n.col >= 0 {
		idx := n.col
		return func(t *tuple.Tuple) (int64, bool) {
			v := &t.Vals[idx]
			return ord(v.AsBool()), v.Kind() == tuple.BoolKind
		}
	}
	ev := n.b
	return func(t *tuple.Tuple) (int64, bool) { return ord(ev(t)), true }
}

func negate[T int64 | float64](in eval[T]) eval[T] {
	return func(t *tuple.Tuple) (T, bool) {
		a, _ := in(t)
		return -a, true
	}
}

// arith applies + - * or / to its operands' payloads, with the right operand
// hoisted when it is a constant. Division is float only; a zero divisor
// yields Null.
func arith[T int64 | float64](op string, l, r eval[T], rConst bool) eval[T] {
	if rConst {
		k, _ := r(nil)
		switch op {
		case "+":
			return func(t *tuple.Tuple) (T, bool) { a, _ := l(t); return a + k, true }
		case "-":
			return func(t *tuple.Tuple) (T, bool) { a, _ := l(t); return a - k, true }
		case "*":
			return func(t *tuple.Tuple) (T, bool) { a, _ := l(t); return a * k, true }
		default:
			if k == 0 {
				return func(*tuple.Tuple) (T, bool) { return 0, false }
			}
			return func(t *tuple.Tuple) (T, bool) { a, _ := l(t); return a / k, true }
		}
	}
	switch op {
	case "+":
		return func(t *tuple.Tuple) (T, bool) { a, _ := l(t); b, _ := r(t); return a + b, true }
	case "-":
		return func(t *tuple.Tuple) (T, bool) { a, _ := l(t); b, _ := r(t); return a - b, true }
	case "*":
		return func(t *tuple.Tuple) (T, bool) { a, _ := l(t); b, _ := r(t); return a * b, true }
	default:
		return func(t *tuple.Tuple) (T, bool) {
			b, _ := r(t)
			if b == 0 {
				return 0, false
			}
			a, _ := l(t)
			return a / b, true
		}
	}
}

// modulo is arith's integer %: a zero divisor yields Null.
func modulo(l, r eval[int64], rConst bool) eval[int64] {
	if rConst {
		k, _ := r(nil)
		if k == 0 {
			return func(*tuple.Tuple) (int64, bool) { return 0, false }
		}
		return func(t *tuple.Tuple) (int64, bool) { a, _ := l(t); return a % k, true }
	}
	return func(t *tuple.Tuple) (int64, bool) {
		d, _ := r(t)
		if d == 0 {
			return 0, false
		}
		a, _ := l(t)
		return a % d, true
	}
}

// cmpMask maps a comparison operator to the Compare results that satisfy
// it: bit c+1 is set when result c does.
var cmpMask = map[string]uint8{"<": 0b001, "=": 0b010, ">": 0b100, "<=": 0b011, ">=": 0b110, "!=": 0b101}

func holds(mask uint8, c int) bool { return mask>>uint(c+1)&1 != 0 }

// compare compiles l op r for op's mask. Both operands plain compare their
// payloads, which orders them exactly as Value.Compare does; otherwise the
// comparison falls back to Value.Compare. A literal right operand is hoisted.
func compare(mask uint8, l, r *node) func(*tuple.Tuple) bool {
	lv, rv := l.boxed(), r.boxed()
	slow := func(t *tuple.Tuple) bool { return holds(mask, lv(t).Compare(rv(t))) }
	intPayload := func(k tuple.ValueKind) bool { return k == tuple.IntKind || k == tuple.TimeKind }
	switch {
	case l.kind == tuple.BoolKind && r.kind == tuple.BoolKind:
		return ordered(mask, asOrdinal(l), asOrdinal(r), r.lit != nil, slow)
	case intPayload(l.kind) && intPayload(r.kind):
		return ordered(mask, l.i, r.i, r.lit != nil, slow)
	case numeric(l.kind) && numeric(r.kind):
		return ordered(mask, asFloat(l), asFloat(r), r.lit != nil, slow)
	case l.kind == tuple.StringKind && r.kind == tuple.StringKind:
		return ordered(mask, l.s, r.s, r.lit != nil, slow)
	default:
		return slow
	}
}

func ordered[T int64 | float64 | string](mask uint8, l, r eval[T], rConst bool, slow func(*tuple.Tuple) bool) func(*tuple.Tuple) bool {
	if rConst {
		k, _ := r(nil)
		return func(t *tuple.Tuple) bool {
			a, aok := l(t)
			if !aok {
				return slow(t)
			}
			return holds(mask, order(a, k))
		}
	}
	return func(t *tuple.Tuple) bool {
		a, aok := l(t)
		b, bok := r(t)
		if !aok || !bok {
			return slow(t)
		}
		return holds(mask, order(a, b))
	}
}

// order is Value.Compare on two payloads of one kind: a NaN orders equal to
// everything, as there.
func order[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// resolveCol finds a column reference in the schema, trying the qualified
// name ("stream.column", as produced by join-schema concatenation) before
// the bare column name.
func resolveCol(ref ColRef, sch *tuple.Schema) (int, tuple.Field, error) {
	var candidates []string
	if ref.Stream != "" {
		candidates = []string{ref.Stream + "." + ref.Column, ref.Column}
	} else {
		candidates = []string{ref.Column}
	}
	for _, c := range candidates {
		if i := sch.Index(c); i >= 0 {
			return i, sch.Field(i), nil
		}
	}
	full := ref.Column
	if ref.Stream != "" {
		full = ref.Stream + "." + ref.Column
	}
	return 0, tuple.Field{}, errf(ref.Pos, "unknown column %q in %s", full, sch.Name)
}

func numeric(k tuple.ValueKind) bool {
	return k == tuple.IntKind || k == tuple.FloatKind || k == tuple.TimeKind
}

func comparable(a, b tuple.ValueKind) bool {
	if numeric(a) && numeric(b) {
		return true
	}
	return a == b
}
