package cql

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// The differential tests below check the kind-specialised compiler against
// compileOracle, the boxed evaluator: same errors, kinds and names, and
// bit-identical values on every tuple, including tuples holding Null, kinds
// the schema did not declare, zero divisors, -0, NaN, ±2^53±1 and the int64
// extremes.

var genSchema = tuple.NewSchema("g",
	tuple.Field{Name: "i1", Kind: tuple.IntKind},
	tuple.Field{Name: "i2", Kind: tuple.IntKind},
	tuple.Field{Name: "f1", Kind: tuple.FloatKind},
	tuple.Field{Name: "f2", Kind: tuple.FloatKind},
	tuple.Field{Name: "s1", Kind: tuple.StringKind},
	tuple.Field{Name: "s2", Kind: tuple.StringKind},
	tuple.Field{Name: "b1", Kind: tuple.BoolKind},
	tuple.Field{Name: "b2", Kind: tuple.BoolKind},
	tuple.Field{Name: "t1", Kind: tuple.TimeKind},
	tuple.Field{Name: "t2", Kind: tuple.TimeKind},
)

const big = 1 << 53

// specials lists, per kind, the values literals and columns are drawn from.
var specials = map[tuple.ValueKind][]tuple.Value{
	tuple.IntKind: {
		tuple.Int(0), tuple.Int(1), tuple.Int(-1), tuple.Int(4), tuple.Int(7),
		tuple.Int(big - 1), tuple.Int(big), tuple.Int(big + 1),
		tuple.Int(-big - 1), tuple.Int(-big + 1),
		tuple.Int(math.MaxInt64), tuple.Int(math.MinInt64),
	},
	tuple.FloatKind: {
		tuple.Float(0), tuple.Float(math.Copysign(0, -1)), tuple.Float(math.NaN()),
		tuple.Float(math.Inf(1)), tuple.Float(math.Inf(-1)), tuple.Float(1.5),
		tuple.Float(-2.5), tuple.Float(4), tuple.Float(big), tuple.Float(big + 2),
		tuple.Float(-big), tuple.Float(math.MaxFloat64),
	},
	tuple.StringKind: {tuple.String_(""), tuple.String_("a"), tuple.String_("b"), tuple.String_("ab")},
	tuple.BoolKind:   {tuple.Bool(false), tuple.Bool(true)},
	tuple.TimeKind: {
		tuple.TimeVal(0), tuple.TimeVal(-5), tuple.TimeVal(7), tuple.TimeVal(big + 1),
		tuple.TimeVal(tuple.MinTime), tuple.TimeVal(tuple.MaxTime),
	},
}

var allKinds = []tuple.ValueKind{tuple.IntKind, tuple.FloatKind, tuple.StringKind, tuple.BoolKind, tuple.TimeKind}

// exprGen draws well-typed expressions and tuples from a byte stream; an
// exhausted stream reads as zeros, which always picks a leaf.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) pick(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b) % n
}

func (g *exprGen) value(k tuple.ValueKind) tuple.Value {
	vs := specials[k]
	return vs[g.pick(len(vs))]
}

func (g *exprGen) leaf(k tuple.ValueKind) Expr {
	if g.pick(2) == 0 {
		var cols []string
		for _, f := range genSchema.Fields {
			if f.Kind == k {
				cols = append(cols, f.Name)
			}
		}
		return &ColExpr{Ref: ColRef{Column: cols[g.pick(len(cols))]}}
	}
	return &LitExpr{Val: g.value(k)}
}

func (g *exprGen) expr(k tuple.ValueKind, depth int) Expr {
	if depth <= 0 || g.pick(4) == 0 {
		return g.leaf(k)
	}
	numerics := []tuple.ValueKind{tuple.IntKind, tuple.FloatKind, tuple.TimeKind}
	switch k {
	case tuple.IntKind:
		if g.pick(4) == 0 {
			return &UnaryExpr{Op: "-", X: g.expr(tuple.IntKind, depth-1)}
		}
		op := []string{"+", "-", "*", "%"}[g.pick(4)]
		return &BinaryExpr{Op: op, Left: g.expr(tuple.IntKind, depth-1), Right: g.expr(tuple.IntKind, depth-1)}
	case tuple.FloatKind:
		if g.pick(4) == 0 {
			return &UnaryExpr{Op: "-", X: g.expr(tuple.FloatKind, depth-1)}
		}
		op := []string{"+", "-", "*", "/"}[g.pick(4)]
		lk, rk := numerics[g.pick(3)], numerics[g.pick(3)]
		if op != "/" && lk == tuple.IntKind && rk == tuple.IntKind {
			lk = tuple.FloatKind // int op int is an int
		}
		return &BinaryExpr{Op: op, Left: g.expr(lk, depth-1), Right: g.expr(rk, depth-1)}
	case tuple.BoolKind:
		switch g.pick(4) {
		case 0:
			return &UnaryExpr{Op: "not", X: g.expr(tuple.BoolKind, depth-1)}
		case 1:
			op := []string{"and", "or"}[g.pick(2)]
			return &BinaryExpr{Op: op, Left: g.expr(tuple.BoolKind, depth-1), Right: g.expr(tuple.BoolKind, depth-1)}
		}
		op := []string{"=", "!=", "<", "<=", ">", ">="}[g.pick(6)]
		var l, r Expr
		switch g.pick(4) {
		case 0:
			l, r = g.expr(numerics[g.pick(3)], depth-1), g.expr(numerics[g.pick(3)], depth-1)
		case 1:
			l, r = g.expr(tuple.StringKind, depth-1), g.expr(tuple.StringKind, depth-1)
		case 2:
			l, r = g.expr(tuple.BoolKind, depth-1), g.expr(tuple.BoolKind, depth-1)
		default:
			if g.pick(8) == 0 {
				l, r = &LitExpr{}, &LitExpr{} // null = null
			} else {
				k := numerics[g.pick(3)]
				l, r = g.expr(k, depth-1), g.expr(k, depth-1)
			}
		}
		return &BinaryExpr{Op: op, Left: l, Right: r}
	default:
		return g.leaf(k)
	}
}

// tuple fills every column with a value of its declared kind, Null, or a
// value of another kind.
func (g *exprGen) tuple() *tuple.Tuple {
	vals := make([]tuple.Value, genSchema.Arity())
	for i, f := range genSchema.Fields {
		switch g.pick(8) {
		case 0:
			// Null
		case 1:
			vals[i] = g.value(allKinds[g.pick(len(allKinds))])
		default:
			vals[i] = g.value(f.Kind)
		}
	}
	return tuple.NewData(0, vals...)
}

// sameValue reports whether a and b have the same kind and payload bits,
// except that any NaN matches any NaN: Go leaves a NaN's sign and payload
// unspecified, and the compiler may swap the operands of a commutative
// float operation, which picks the NaN an x86 add of two NaNs returns.
func sameValue(a, b tuple.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case tuple.IntKind:
		return a.AsInt() == b.AsInt()
	case tuple.FloatKind:
		x, y := a.AsFloat(), b.AsFloat()
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	case tuple.StringKind:
		return a.AsString() == b.AsString()
	case tuple.BoolKind:
		return a.AsBool() == b.AsBool()
	case tuple.TimeKind:
		return a.AsTime() == b.AsTime()
	default:
		return true
	}
}

// checkAgainstOracle compiles one generated expression both ways and
// compares them on a few generated tuples.
func checkAgainstOracle(t *testing.T, data []byte) {
	g := &exprGen{data: data}
	e := g.expr(allKinds[g.pick(len(allKinds))], 1+g.pick(5))
	want, werr := compileOracle(e, genSchema)
	got, err := CompileExpr(e, genSchema)
	if (err == nil) != (werr == nil) {
		t.Fatalf("compile errors differ: %v vs oracle %v", err, werr)
	}
	if err != nil {
		return
	}
	if got.Kind != want.Kind || got.Name != want.Name {
		t.Fatalf("compiled %s %v, oracle %s %v", got.Name, got.Kind, want.Name, want.Kind)
	}
	var pred func(*tuple.Tuple) bool
	if got.Kind == tuple.BoolKind {
		if pred, err = CompilePredicate(e, genSchema); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		tp := g.tuple()
		w := want.Eval(tp)
		if v := got.Eval(tp); !sameValue(v, w) {
			t.Fatalf("%s on %v = %v (%v), oracle %v (%v)", got.Name, tp.Vals, v, v.Kind(), w, w.Kind())
		}
		if pred != nil && pred(tp) != w.AsBool() {
			t.Fatalf("predicate %s on %v = %v, oracle %v", got.Name, tp.Vals, pred(tp), w)
		}
	}
}

// FuzzCompileExpr differentially fuzzes the compiler against the boxed
// oracle. Its seed corpus, run by every go test, is a few hundred
// pseudo-random streams.
func FuzzCompileExpr(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		b := make([]byte, 16+rng.Intn(96))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(checkAgainstOracle)
}

func TestCompareBeyondFloatPrecision(t *testing.T) {
	sch := tuple.NewSchema("s",
		tuple.Field{Name: "n", Kind: tuple.IntKind},
		tuple.Field{Name: "ts", Kind: tuple.TimeKind},
	)
	tp := tuple.NewData(0, tuple.Int(big), tuple.TimeVal(big+1))
	for q, want := range map[string]bool{
		"SELECT * FROM x WHERE n = 9007199254740993":   false,
		"SELECT * FROM x WHERE n < 9007199254740993":   true,
		"SELECT * FROM x WHERE 9007199254740993 > n":   true,
		"SELECT * FROM x WHERE n != ts":                true,
		"SELECT * FROM x WHERE n + 1 = ts":             true,
		"SELECT * FROM x WHERE n = 9007199254740992.0": true,
	} {
		pred, err := CompilePredicate(mustParse(t, q).Select.Where, sch)
		if err != nil {
			t.Fatalf("compile %q: %v", q, err)
		}
		if got := pred(tp); got != want {
			t.Errorf("%q = %v, want %v", q, got, want)
		}
	}
}

var predSink bool

// BenchmarkCompiledPredicate evaluates the benchmark's pipeline_dense WHERE
// clause, compiled and through the boxed oracle.
func BenchmarkCompiledPredicate(b *testing.B) {
	sch := tuple.NewSchema("s",
		tuple.Field{Name: "k", Kind: tuple.IntKind},
		tuple.Field{Name: "x", Kind: tuple.IntKind},
		tuple.Field{Name: "due", Kind: tuple.IntKind},
	)
	st, err := Parse("SELECT k, x, due FROM s WHERE x % 4 <> 0")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	tuples := make([]*tuple.Tuple, 1024)
	for i := range tuples {
		tuples[i] = tuple.NewData(0, tuple.Int(int64(i)), tuple.Int(rng.Int63()), tuple.Int(int64(i)))
	}
	oracle, err := compileOracle(st.Select.Where, sch)
	if err != nil {
		b.Fatal(err)
	}
	boxed := func(t *tuple.Tuple) bool { return oracle.Eval(t).AsBool() }
	typed, err := CompilePredicate(st.Select.Where, sch)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		pred func(*tuple.Tuple) bool
	}{{"typed", typed}, {"oracle", boxed}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				predSink = leg.pred(tuples[i&1023])
			}
		})
	}
}
