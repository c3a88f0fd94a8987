package cql

import (
	"fmt"

	"repro/internal/tuple"
)

// compileOracle is the reference evaluator the kind-specialised compiler is
// checked against: a closure tree in which every node returns a tuple.Value
// and every operator applies Value's own rules (Compare, AsInt, AsFloat,
// AsBool) to its operands' Values. Name resolution, type checking, result
// kinds, names and error texts are the compiler's as well.
func compileOracle(e Expr, sch *tuple.Schema) (Compiled, error) {
	switch x := e.(type) {
	case *LitExpr:
		v := x.Val
		return Compiled{
			Eval: func(*tuple.Tuple) tuple.Value { return v },
			Kind: v.Kind(),
			Name: v.String(),
		}, nil
	case *ColExpr:
		idx, f, err := resolveCol(x.Ref, sch)
		if err != nil {
			return Compiled{}, err
		}
		return Compiled{
			Eval: func(t *tuple.Tuple) tuple.Value { return t.Vals[idx] },
			Kind: f.Kind,
			Name: f.Name,
		}, nil
	case *UnaryExpr:
		in, err := compileOracle(x.X, sch)
		if err != nil {
			return Compiled{}, err
		}
		switch x.Op {
		case "not":
			if in.Kind != tuple.BoolKind {
				return Compiled{}, errf(x.Pos, "NOT requires a boolean, got %v", in.Kind)
			}
			return Compiled{
				Eval: func(t *tuple.Tuple) tuple.Value { return tuple.Bool(!in.Eval(t).AsBool()) },
				Kind: tuple.BoolKind,
				Name: "not " + in.Name,
			}, nil
		case "-":
			switch in.Kind {
			case tuple.IntKind:
				return Compiled{
					Eval: func(t *tuple.Tuple) tuple.Value { return tuple.Int(-in.Eval(t).AsInt()) },
					Kind: tuple.IntKind,
					Name: "-" + in.Name,
				}, nil
			case tuple.FloatKind:
				return Compiled{
					Eval: func(t *tuple.Tuple) tuple.Value { return tuple.Float(-in.Eval(t).AsFloat()) },
					Kind: tuple.FloatKind,
					Name: "-" + in.Name,
				}, nil
			default:
				return Compiled{}, errf(x.Pos, "unary minus requires a number, got %v", in.Kind)
			}
		default:
			return Compiled{}, errf(x.Pos, "unknown unary operator %q", x.Op)
		}
	case *BinaryExpr:
		return compileOracleBinary(x, sch)
	default:
		return Compiled{}, fmt.Errorf("cql: unknown expression node %T", e)
	}
}

func compileOracleBinary(x *BinaryExpr, sch *tuple.Schema) (Compiled, error) {
	l, err := compileOracle(x.Left, sch)
	if err != nil {
		return Compiled{}, err
	}
	r, err := compileOracle(x.Right, sch)
	if err != nil {
		return Compiled{}, err
	}
	name := fmt.Sprintf("(%s %s %s)", l.Name, x.Op, r.Name)
	switch x.Op {
	case "and", "or":
		if l.Kind != tuple.BoolKind || r.Kind != tuple.BoolKind {
			return Compiled{}, errf(x.Pos, "%s requires booleans, got %v and %v", x.Op, l.Kind, r.Kind)
		}
		and := x.Op == "and"
		return Compiled{
			Eval: func(t *tuple.Tuple) tuple.Value {
				a := l.Eval(t).AsBool()
				if and {
					return tuple.Bool(a && r.Eval(t).AsBool())
				}
				return tuple.Bool(a || r.Eval(t).AsBool())
			},
			Kind: tuple.BoolKind,
			Name: name,
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		if !comparable(l.Kind, r.Kind) {
			return Compiled{}, errf(x.Pos, "cannot compare %v with %v", l.Kind, r.Kind)
		}
		op := x.Op
		return Compiled{
			Eval: func(t *tuple.Tuple) tuple.Value {
				c := l.Eval(t).Compare(r.Eval(t))
				var b bool
				switch op {
				case "=":
					b = c == 0
				case "!=":
					b = c != 0
				case "<":
					b = c < 0
				case "<=":
					b = c <= 0
				case ">":
					b = c > 0
				case ">=":
					b = c >= 0
				}
				return tuple.Bool(b)
			},
			Kind: tuple.BoolKind,
			Name: name,
		}, nil
	case "+", "-", "*", "/", "%":
		if !numeric(l.Kind) || !numeric(r.Kind) {
			return Compiled{}, errf(x.Pos, "%s requires numbers, got %v and %v", x.Op, l.Kind, r.Kind)
		}
		if x.Op == "%" {
			if l.Kind != tuple.IntKind || r.Kind != tuple.IntKind {
				return Compiled{}, errf(x.Pos, "%% requires integers")
			}
			return Compiled{
				Eval: func(t *tuple.Tuple) tuple.Value {
					d := r.Eval(t).AsInt()
					if d == 0 {
						return tuple.Value{}
					}
					return tuple.Int(l.Eval(t).AsInt() % d)
				},
				Kind: tuple.IntKind,
				Name: name,
			}, nil
		}
		intOp := l.Kind == tuple.IntKind && r.Kind == tuple.IntKind && x.Op != "/"
		op := x.Op
		if intOp {
			return Compiled{
				Eval: func(t *tuple.Tuple) tuple.Value {
					a, b := l.Eval(t).AsInt(), r.Eval(t).AsInt()
					switch op {
					case "+":
						return tuple.Int(a + b)
					case "-":
						return tuple.Int(a - b)
					default:
						return tuple.Int(a * b)
					}
				},
				Kind: tuple.IntKind,
				Name: name,
			}, nil
		}
		return Compiled{
			Eval: func(t *tuple.Tuple) tuple.Value {
				a, b := l.Eval(t).AsFloat(), r.Eval(t).AsFloat()
				switch op {
				case "+":
					return tuple.Float(a + b)
				case "-":
					return tuple.Float(a - b)
				case "*":
					return tuple.Float(a * b)
				default:
					if b == 0 {
						return tuple.Value{}
					}
					return tuple.Float(a / b)
				}
			},
			Kind: tuple.FloatKind,
			Name: name,
		}, nil
	default:
		return Compiled{}, errf(x.Pos, "unknown operator %q", x.Op)
	}
}
