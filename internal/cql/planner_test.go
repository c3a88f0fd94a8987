package cql

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tuple"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	for _, ddl := range []string{
		"CREATE STREAM a (k int, v float)",
		"CREATE STREAM b (k int, w float)",
		"CREATE STREAM sensors (id int, temp float, loc string)",
		"CREATE STREAM la (x int) TIMESTAMP LATENT",
		"CREATE STREAM lb (x int) TIMESTAMP LATENT",
	} {
		st := mustParse(t, ddl)
		if err := cat.Register(SchemaFromCreate(st.Create)); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// runQuery builds the plan into a fresh graph with sources, feeds the given
// tuples per stream (pre-stamped), runs the engine to quiescence, and
// returns the sink output.
func runQuery(t *testing.T, cat *Catalog, q string, feed map[string][]*tuple.Tuple) []*tuple.Tuple {
	return runQueryOpts(t, cat, q, feed, PlanOptions{})
}

func runQueryOpts(t *testing.T, cat *Catalog, q string, feed map[string][]*tuple.Tuple, opts PlanOptions) []*tuple.Tuple {
	t.Helper()
	st := mustParse(t, q)
	plan, err := PlanSelectOptions(st.Select, cat, opts)
	if err != nil {
		t.Fatalf("PlanSelect(%q): %v", q, err)
	}
	g := graph.New("q")
	sources := map[string]graph.NodeID{}
	srcOps := map[string]*ops.Source{}
	for _, sch := range plan.Streams {
		if _, ok := sources[sch.Name]; ok {
			continue
		}
		src := ops.NewSource(sch.Name, sch, 0)
		sources[sch.Name] = g.AddNode(src)
		srcOps[sch.Name] = src
	}
	outNode, err := plan.Build(g, sources)
	if err != nil {
		t.Fatalf("Build(%q): %v", q, err)
	}
	var got []*tuple.Tuple
	g.AddNode(ops.NewSink("sink", func(tp *tuple.Tuple, _ tuple.Time) { got = append(got, tp) }), outNode)

	clock := tuple.Time(0)
	e := exec.MustNew(g, nil, func() tuple.Time { return clock })
	for name, tuples := range feed {
		src, ok := srcOps[name]
		if !ok {
			t.Fatalf("feed for unknown stream %q", name)
		}
		for _, tp := range tuples {
			src.Offer(tp)
		}
		src.Offer(tuple.EOS())
	}
	e.Run(100000)
	return got
}

func row(ts tuple.Time, vals ...tuple.Value) *tuple.Tuple { return tuple.NewData(ts, vals...) }

func TestPlanFilterProjection(t *testing.T) {
	cat := testCatalog(t)
	out := runQuery(t, cat,
		"SELECT loc, temp FROM sensors WHERE temp > 30 AND loc != 'ignore'",
		map[string][]*tuple.Tuple{
			"sensors": {
				row(1, tuple.Int(1), tuple.Float(35), tuple.String_("lab")),
				row(2, tuple.Int(2), tuple.Float(25), tuple.String_("lab")),
				row(3, tuple.Int(3), tuple.Float(40), tuple.String_("ignore")),
				row(4, tuple.Int(4), tuple.Float(31), tuple.String_("roof")),
			},
		})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Vals[0].AsString() != "lab" || out[0].Vals[1].AsFloat() != 35 {
		t.Errorf("row 0 = %v", out[0])
	}
	if out[1].Vals[0].AsString() != "roof" {
		t.Errorf("row 1 = %v", out[1])
	}
}

func TestPlanComputedColumns(t *testing.T) {
	cat := testCatalog(t)
	out := runQuery(t, cat,
		"SELECT v * 2.0 AS double_v, k + 1 FROM a",
		map[string][]*tuple.Tuple{
			"a": {row(1, tuple.Int(10), tuple.Float(1.5))},
		})
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if out[0].Vals[0].AsFloat() != 3.0 || out[0].Vals[1].AsInt() != 11 {
		t.Errorf("computed = %v", out[0].Vals)
	}
}

// A select list that keeps every column in place adds no Project node, yet
// the plan's output schema still carries the list's names.
func TestPlanIdentitySelectListAddsNoProject(t *testing.T) {
	cat := testCatalog(t)
	for _, c := range []struct {
		q       string
		project bool
	}{
		{"SELECT k AS key, v FROM a", false},
		{"SELECT a.k, a.v FROM a", false},
		{"SELECT v, k FROM a", true},
		{"SELECT k FROM a", true},
		{"SELECT k, v, k FROM a", true},
	} {
		plan, err := PlanSelect(mustParse(t, c.q).Select, cat)
		if err != nil {
			t.Fatalf("PlanSelect(%q): %v", c.q, err)
		}
		g := graph.New("q")
		src := g.AddNode(ops.NewSource("a", plan.Streams[0], 0))
		out, err := plan.Build(g, map[string]graph.NodeID{"a": src})
		if err != nil {
			t.Fatal(err)
		}
		if got := out != src; got != c.project {
			t.Errorf("%q: adds a node = %v, want %v", c.q, got, c.project)
		}
	}
	plan, err := PlanSelect(mustParse(t, "SELECT k AS key, v FROM a").Select, cat)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Out.Name != "a_proj" || plan.Out.Field(0).Name != "key" || plan.Out.Field(1).Name != "v" {
		t.Errorf("identity output schema = %v", plan.Out)
	}
	out := runQuery(t, cat, "SELECT k AS key, v FROM a",
		map[string][]*tuple.Tuple{"a": {row(1, tuple.Int(3), tuple.Float(0.5))}})
	if len(out) != 1 || out[0].Vals[0].AsInt() != 3 || out[0].Vals[1].AsFloat() != 0.5 {
		t.Errorf("identity select out = %v", out)
	}
}

func TestPlanUnionOrdersByTimestamp(t *testing.T) {
	cat := testCatalog(t)
	out := runQuery(t, cat,
		"SELECT * FROM a UNION b",
		map[string][]*tuple.Tuple{
			"a": {row(1, tuple.Int(1), tuple.Float(0)), row(5, tuple.Int(5), tuple.Float(0))},
			"b": {row(2, tuple.Int(2), tuple.Float(0)), row(9, tuple.Int(9), tuple.Float(0))},
		})
	if len(out) != 4 {
		t.Fatalf("out = %v", out)
	}
	for i, want := range []tuple.Time{1, 2, 5, 9} {
		if out[i].Ts != want {
			t.Fatalf("order: %v", out)
		}
	}
}

func TestPlanUnionIncompatible(t *testing.T) {
	cat := testCatalog(t)
	st := mustParse(t, "SELECT * FROM a UNION sensors")
	if _, err := PlanSelect(st.Select, cat); err == nil {
		t.Fatal("incompatible union accepted")
	}
	st = mustParse(t, "SELECT * FROM a UNION la")
	if _, err := PlanSelect(st.Select, cat); err == nil {
		t.Fatal("mixed latent/timestamped union accepted")
	}
}

func TestPlanLatentUnion(t *testing.T) {
	cat := testCatalog(t)
	out := runQuery(t, cat,
		"SELECT * FROM la UNION lb",
		map[string][]*tuple.Tuple{
			"la": {row(tuple.MinTime, tuple.Int(1))},
			"lb": {row(tuple.MinTime, tuple.Int(2))},
		})
	if len(out) != 2 {
		t.Fatalf("latent union out = %v", out)
	}
}

func TestPlanJoin(t *testing.T) {
	cat := testCatalog(t)
	out := runQuery(t, cat,
		"SELECT a.k, v, w FROM a JOIN b ON a.k = b.k WINDOW 10s",
		map[string][]*tuple.Tuple{
			"a": {row(1*tuple.Second, tuple.Int(7), tuple.Float(1.0))},
			"b": {
				row(2*tuple.Second, tuple.Int(7), tuple.Float(2.0)),
				row(3*tuple.Second, tuple.Int(8), tuple.Float(3.0)),
			},
		})
	if len(out) != 1 {
		t.Fatalf("join out = %v", out)
	}
	vals := out[0].Vals
	if vals[0].AsInt() != 7 || vals[1].AsFloat() != 1.0 || vals[2].AsFloat() != 2.0 {
		t.Errorf("joined row = %v", vals)
	}
}

func TestPlanJoinRequiresWindow(t *testing.T) {
	cat := testCatalog(t)
	st := mustParse(t, "SELECT * FROM a JOIN b ON a.k = b.k")
	if _, err := PlanSelect(st.Select, cat); err == nil {
		t.Fatal("join without window accepted")
	}
}

func TestPlanAggregate(t *testing.T) {
	cat := testCatalog(t)
	out := runQuery(t, cat,
		"SELECT loc, count(*) AS n, avg(temp) FROM sensors GROUP BY loc WINDOW 10s",
		map[string][]*tuple.Tuple{
			"sensors": {
				row(1*tuple.Second, tuple.Int(1), tuple.Float(10), tuple.String_("lab")),
				row(2*tuple.Second, tuple.Int(2), tuple.Float(20), tuple.String_("lab")),
				row(3*tuple.Second, tuple.Int(3), tuple.Float(50), tuple.String_("roof")),
				// next window forces the first to close
				row(12*tuple.Second, tuple.Int(4), tuple.Float(1), tuple.String_("lab")),
			},
		})
	// EOS flushes the second window too.
	if len(out) != 3 {
		t.Fatalf("agg out = %v", out)
	}
	lab := out[0]
	if lab.Vals[0].AsString() != "lab" || lab.Vals[1].AsInt() != 2 || lab.Vals[2].AsFloat() != 15 {
		t.Errorf("lab row = %v", lab.Vals)
	}
	roof := out[1]
	if roof.Vals[0].AsString() != "roof" || roof.Vals[1].AsInt() != 1 {
		t.Errorf("roof row = %v", roof.Vals)
	}
	if out[0].Ts != 10*tuple.Second || out[2].Ts != 20*tuple.Second {
		t.Errorf("window close timestamps: %v, %v", out[0].Ts, out[2].Ts)
	}
}

func TestPlanAggregateErrors(t *testing.T) {
	cat := testCatalog(t)
	for _, q := range []string{
		"SELECT count(*) FROM sensors",                               // no window
		"SELECT temp, count(*) FROM sensors GROUP BY loc WINDOW 10s", // first item not group col
		"SELECT loc, temp FROM sensors GROUP BY loc WINDOW 10s",      // non-agg item... (temp)
		"SELECT loc, sum(*) FROM sensors GROUP BY loc WINDOW 10s",    // sum needs a column
		"SELECT loc, median(temp) FROM sensors GROUP BY loc WINDOW 10s",
		"SELECT count(*) FROM sensors WHERE ghost > 1 WINDOW 10s", // unknown column
	} {
		st := mustParse(t, q)
		if _, err := PlanSelect(st.Select, cat); err == nil {
			t.Errorf("PlanSelect(%q) should fail", q)
		}
	}
}

func TestPlanUnknownStream(t *testing.T) {
	cat := testCatalog(t)
	st := mustParse(t, "SELECT * FROM ghost")
	if _, err := PlanSelect(st.Select, cat); err == nil {
		t.Fatal("unknown stream accepted")
	}
}

func TestCatalogDuplicate(t *testing.T) {
	cat := NewCatalog()
	sch := tuple.NewSchema("s", tuple.Field{Name: "x", Kind: tuple.IntKind})
	if err := cat.Register(sch); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(sch); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if len(cat.Names()) != 1 {
		t.Errorf("Names = %v", cat.Names())
	}
}

func TestCompileExprTypeErrors(t *testing.T) {
	sch := tuple.NewSchema("s",
		tuple.Field{Name: "n", Kind: tuple.IntKind},
		tuple.Field{Name: "s", Kind: tuple.StringKind},
		tuple.Field{Name: "b", Kind: tuple.BoolKind},
	)
	bad := []string{
		"SELECT * FROM x WHERE s + 1 > 0",
		"SELECT * FROM x WHERE n AND b",
		"SELECT * FROM x WHERE NOT n",
		"SELECT * FROM x WHERE s > 1",
		"SELECT * FROM x WHERE n", // non-boolean WHERE
		"SELECT * FROM x WHERE -s = 'a'",
		"SELECT * FROM x WHERE n % s = 0",
	}
	for _, q := range bad {
		st := mustParse(t, q)
		if _, err := CompilePredicate(st.Select.Where, sch); err == nil {
			t.Errorf("predicate %q should fail to compile", q)
		}
	}
}

func TestCompileExprEvaluation(t *testing.T) {
	sch := tuple.NewSchema("s",
		tuple.Field{Name: "n", Kind: tuple.IntKind},
		tuple.Field{Name: "f", Kind: tuple.FloatKind},
		tuple.Field{Name: "b", Kind: tuple.BoolKind},
	)
	tp := tuple.NewData(0, tuple.Int(7), tuple.Float(2.5), tuple.Bool(true))
	cases := []struct {
		q    string
		want bool
	}{
		{"SELECT * FROM x WHERE n = 7", true},
		{"SELECT * FROM x WHERE n != 7", false},
		{"SELECT * FROM x WHERE n * 2 >= 14", true},
		{"SELECT * FROM x WHERE f / 0.5 = 5.0", true},
		{"SELECT * FROM x WHERE n % 2 = 1", true},
		{"SELECT * FROM x WHERE -n < 0", true},
		{"SELECT * FROM x WHERE b AND n > 1 OR false", true},
		{"SELECT * FROM x WHERE NOT b", false},
		{"SELECT * FROM x WHERE n + f > 9.4", true},
		{"SELECT * FROM x WHERE n - 10 < 0", true},
	}
	for _, c := range cases {
		st := mustParse(t, c.q)
		pred, err := CompilePredicate(st.Select.Where, sch)
		if err != nil {
			t.Errorf("compile %q: %v", c.q, err)
			continue
		}
		if got := pred(tp); got != c.want {
			t.Errorf("%q = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	sch := tuple.NewSchema("s", tuple.Field{Name: "n", Kind: tuple.IntKind})
	st := mustParse(t, "SELECT * FROM x WHERE n / 0 = 0.0")
	pred, err := CompilePredicate(st.Select.Where, sch)
	if err != nil {
		t.Fatal(err)
	}
	// null compares as not-equal to 0.0 numerically? Compare(null, 0.0)
	// orders by kind; the predicate must simply not panic.
	_ = pred(tuple.NewData(0, tuple.Int(5)))
}
