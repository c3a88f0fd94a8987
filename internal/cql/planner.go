package cql

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Catalog maps stream names to their schemas.
type Catalog struct {
	schemas map[string]*tuple.Schema
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{schemas: make(map[string]*tuple.Schema)}
}

// Register adds a schema; re-registering a name is an error.
func (c *Catalog) Register(sch *tuple.Schema) error {
	if err := sch.Validate(); err != nil {
		return err
	}
	if _, dup := c.schemas[sch.Name]; dup {
		return fmt.Errorf("cql: stream %q already declared", sch.Name)
	}
	c.schemas[sch.Name] = sch
	return nil
}

// Schema resolves a stream name.
func (c *Catalog) Schema(name string) (*tuple.Schema, error) {
	sch, ok := c.schemas[name]
	if !ok {
		return nil, fmt.Errorf("cql: unknown stream %q", name)
	}
	return sch, nil
}

// Names lists the registered stream names (unordered).
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.schemas))
	for n := range c.schemas {
		out = append(out, n)
	}
	return out
}

// SchemaFromCreate converts a CREATE STREAM statement into a schema.
func SchemaFromCreate(cs *CreateStmt) *tuple.Schema {
	sch := tuple.NewSchema(cs.Name, cs.Fields...)
	return sch.WithTS(cs.TS)
}

// Plan is a compiled continuous query, ready to be instantiated into a
// query graph.
type Plan struct {
	stmt *SelectStmt
	cat  *Catalog

	// Streams lists the input stream schemas in FROM order.
	Streams []*tuple.Schema
	// Out is the output schema.
	Out *tuple.Schema

	build func(g *graph.Graph, sources map[string]graph.NodeID) (graph.NodeID, error)
}

// PlanOptions tunes the planner.
type PlanOptions struct {
	// NoPushdown disables the selection-pushdown rewrite (see pushdown.go);
	// the WHERE predicate then runs after the union/join, as written.
	NoPushdown bool
}

// PlanSelect type-checks sel against the catalog and produces a Plan with
// default options (selection pushdown enabled).
func PlanSelect(sel *SelectStmt, cat *Catalog) (*Plan, error) {
	return PlanSelectOptions(sel, cat, PlanOptions{})
}

// PlanSelectOptions is PlanSelect with explicit planner options.
func PlanSelectOptions(sel *SelectStmt, cat *Catalog, opts PlanOptions) (*Plan, error) {
	p := &Plan{stmt: sel, cat: cat}
	for _, name := range sel.From.Streams {
		sch, err := cat.Schema(name)
		if err != nil {
			return nil, err
		}
		p.Streams = append(p.Streams, sch)
	}

	mode, err := iwpMode(p.Streams)
	if err != nil {
		return nil, err
	}

	// The relation schema the WHERE/select list sees.
	var relSchema *tuple.Schema
	var mkRelation func(g *graph.Graph, src map[string]graph.NodeID) (graph.NodeID, error)

	// Pushdown state, populated after WHERE compilation; the mkRelation
	// closures read it at build time.
	var push struct {
		union func(*tuple.Tuple) bool // duplicated onto every union arm
		left  func(*tuple.Tuple) bool // join sides
		right func(*tuple.Tuple) bool
	}
	wrap := func(g *graph.Graph, node graph.NodeID, sch *tuple.Schema, pred func(*tuple.Tuple) bool) graph.NodeID {
		if pred == nil {
			return node
		}
		return g.AddNode(ops.NewSelect("where↓", sch, pred), node)
	}

	switch {
	case sel.From.Join != nil:
		if len(p.Streams) != 2 {
			return nil, fmt.Errorf("cql: join requires exactly two streams")
		}
		l, r := p.Streams[0], p.Streams[1]
		relSchema = l.Concat(l.Name+"_"+r.Name, r)
		j := sel.From.Join
		li, _, err := resolveCol(j.LeftCol, l)
		if err != nil {
			return nil, err
		}
		ri, _, err := resolveCol(j.RightCol, r)
		if err != nil {
			return nil, err
		}
		spec := window.Spec{Span: j.Window, Rows: j.Rows}
		if spec.Span == 0 && spec.Rows == 0 {
			return nil, fmt.Errorf("cql: join requires a WINDOW clause")
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		rightSpec := spec
		if j.RightWindow > 0 {
			rightSpec = window.Spec{Span: j.RightWindow}
			if err := rightSpec.Validate(); err != nil {
				return nil, err
			}
		}
		mkRelation = func(g *graph.Graph, src map[string]graph.NodeID) (graph.NodeID, error) {
			ln, lok := src[l.Name]
			rn, rok := src[r.Name]
			if !lok || !rok {
				return 0, fmt.Errorf("cql: missing source node for join inputs")
			}
			ln = wrap(g, ln, l, push.left)
			rn = wrap(g, rn, r, push.right)
			// CQL joins are always equi-joins, so the planner picks the
			// hash-indexed variant: probes cost O(matches) instead of a
			// window scan.
			jn := ops.NewHashWindowJoin("join", relSchema, spec, rightSpec, li, ri, mode)
			return g.AddNode(jn, ln, rn), nil
		}

	case len(p.Streams) == 1:
		relSchema = p.Streams[0]
		name := p.Streams[0].Name
		mkRelation = func(g *graph.Graph, src map[string]graph.NodeID) (graph.NodeID, error) {
			n, ok := src[name]
			if !ok {
				return 0, fmt.Errorf("cql: missing source node for %q", name)
			}
			return n, nil
		}

	default: // union
		first := p.Streams[0]
		for _, s := range p.Streams[1:] {
			if err := unionCompatible(first, s); err != nil {
				return nil, err
			}
		}
		relSchema = first
		names := sel.From.Streams
		nIn := len(names)
		schemas := p.Streams
		mkRelation = func(g *graph.Graph, src map[string]graph.NodeID) (graph.NodeID, error) {
			preds := make([]graph.NodeID, 0, nIn)
			for i, name := range names {
				n, ok := src[name]
				if !ok {
					return 0, fmt.Errorf("cql: missing source node for %q", name)
				}
				// Union inputs are positionally compatible, so the
				// pushed predicate (compiled against the first
				// schema) evaluates identically on every arm.
				preds = append(preds, wrap(g, n, schemas[i], push.union))
			}
			u := ops.NewUnion("union", relSchema, nIn, mode)
			return g.AddNode(u, preds...), nil
		}
	}

	// WHERE — with pushdown when enabled and transparent (see pushdown.go).
	var pred func(*tuple.Tuple) bool
	if sel.Where != nil {
		// Always compile against the relation schema first: this is the
		// authoritative name resolution and type check.
		pred, err = CompilePredicate(sel.Where, relSchema)
		if err != nil {
			return nil, err
		}
		switch {
		case opts.NoPushdown:
			// keep pred after the relation
		case sel.From.Join != nil:
			l, r := p.Streams[0], p.Streams[1]
			lc, rc, rest := splitJoinPredicate(sel.Where, relSchema, l.Arity())
			ok := true
			if e := joinConjuncts(lc); e != nil {
				if push.left, err = CompilePredicate(e, l); err != nil {
					ok = false
				}
			}
			if e := joinConjuncts(rc); e != nil && ok {
				if push.right, err = CompilePredicate(e, r); err != nil {
					ok = false
				}
			}
			if !ok {
				// Unexpected (classification guarantees resolvability);
				// fall back to the post-join predicate.
				push.left, push.right = nil, nil
			} else if e := joinConjuncts(rest); e != nil {
				if pred, err = CompilePredicate(e, relSchema); err != nil {
					return nil, err
				}
			} else {
				pred = nil
			}
		case len(p.Streams) > 1:
			// Union: duplicate the whole predicate onto every arm.
			push.union = pred
			pred = nil
		}
	}

	// Select list: aggregate or plain projection/computation.
	hasAgg := false
	for _, it := range sel.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}

	if !hasAgg && sel.GroupBy != "" {
		return nil, fmt.Errorf("cql: GROUP BY requires aggregate functions in the select list")
	}

	var mkTail func(g *graph.Graph, in graph.NodeID) (graph.NodeID, error)
	switch {
	case hasAgg:
		out, build, err := planAggregate(sel, relSchema)
		if err != nil {
			return nil, err
		}
		p.Out = out
		mkTail = build
	case sel.Star || len(sel.Items) == 0:
		p.Out = relSchema
		mkTail = func(_ *graph.Graph, in graph.NodeID) (graph.NodeID, error) { return in, nil }
	default:
		out, build, err := planProjection(sel, relSchema)
		if err != nil {
			return nil, err
		}
		p.Out = out
		mkTail = build
	}

	p.build = func(g *graph.Graph, sources map[string]graph.NodeID) (graph.NodeID, error) {
		node, err := mkRelation(g, sources)
		if err != nil {
			return 0, err
		}
		if pred != nil {
			node = g.AddNode(ops.NewSelect("where", relSchema, pred), node)
		}
		return mkTail(g, node)
	}
	return p, nil
}

// Build instantiates the plan into g, wiring the named source nodes, and
// returns the output node (attach a sink to consume results).
func (p *Plan) Build(g *graph.Graph, sources map[string]graph.NodeID) (graph.NodeID, error) {
	return p.build(g, sources)
}

// planProjection handles a select list without aggregates.
func planProjection(sel *SelectStmt, relSchema *tuple.Schema) (*tuple.Schema, func(*graph.Graph, graph.NodeID) (graph.NodeID, error), error) {
	// Pure column list compiles to a Project; anything else to a Map.
	pure := true
	for _, it := range sel.Items {
		if _, ok := it.Expr.(*ColExpr); !ok {
			pure = false
			break
		}
	}
	outFields := make([]tuple.Field, 0, len(sel.Items))
	if pure {
		idx := make([]int, 0, len(sel.Items))
		for _, it := range sel.Items {
			ref := it.Expr.(*ColExpr).Ref
			i, f, err := resolveCol(ref, relSchema)
			if err != nil {
				return nil, nil, err
			}
			idx = append(idx, i)
			name := f.Name
			if it.Alias != "" {
				name = it.Alias
			}
			outFields = append(outFields, tuple.Field{Name: name, Kind: f.Kind})
		}
		out := tuple.NewSchema(relSchema.Name+"_proj", outFields...).WithTS(relSchema.TS)
		if identity(idx, relSchema.Arity()) {
			// Every column in place: the relation's tuples already have the
			// output's shape, and only the names (the schema) change.
			return out, func(_ *graph.Graph, in graph.NodeID) (graph.NodeID, error) { return in, nil }, nil
		}
		build := func(g *graph.Graph, in graph.NodeID) (graph.NodeID, error) {
			return g.AddNode(ops.NewProject("project", out, idx), in), nil
		}
		return out, build, nil
	}
	evals := make([]Compiled, 0, len(sel.Items))
	for _, it := range sel.Items {
		c, err := CompileExpr(it.Expr, relSchema)
		if err != nil {
			return nil, nil, err
		}
		name := c.Name
		if it.Alias != "" {
			name = it.Alias
		}
		outFields = append(outFields, tuple.Field{Name: name, Kind: c.Kind})
		evals = append(evals, c)
	}
	out := tuple.NewSchema(relSchema.Name+"_map", outFields...).WithTS(relSchema.TS)
	build := func(g *graph.Graph, in graph.NodeID) (graph.NodeID, error) {
		m := ops.NewMap("compute", out, func(t *tuple.Tuple) *tuple.Tuple {
			vals := make([]tuple.Value, len(evals))
			for i, c := range evals {
				vals[i] = c.Eval(t)
			}
			return &tuple.Tuple{Ts: t.Ts, Kind: tuple.Data, Vals: vals, Arrived: t.Arrived}
		})
		return g.AddNode(m, in), nil
	}
	return out, build, nil
}

// identity reports whether idx keeps all arity columns in place.
func identity(idx []int, arity int) bool {
	if len(idx) != arity {
		return false
	}
	for i, j := range idx {
		if i != j {
			return false
		}
	}
	return true
}

// planAggregate handles a select list with aggregate calls.
func planAggregate(sel *SelectStmt, relSchema *tuple.Schema) (*tuple.Schema, func(*graph.Graph, graph.NodeID) (graph.NodeID, error), error) {
	if sel.Window <= 0 {
		return nil, nil, fmt.Errorf("cql: aggregates require a WINDOW clause")
	}
	slide := sel.Slide
	if slide == 0 {
		slide = sel.Window // tumbling
	}
	if slide > sel.Window {
		return nil, nil, fmt.Errorf("cql: SLIDE (%v) must not exceed WINDOW (%v)", slide, sel.Window)
	}
	groupCol := -1
	outFields := []tuple.Field{}
	if sel.GroupBy != "" {
		i, f, err := resolveCol(ColRef{Column: sel.GroupBy}, relSchema)
		if err != nil {
			return nil, nil, err
		}
		groupCol = i
		// Convention: the group-by column must be the first select item.
		if len(sel.Items) == 0 {
			return nil, nil, fmt.Errorf("cql: empty select list with GROUP BY")
		}
		first, ok := sel.Items[0].Expr.(*ColExpr)
		if !ok || first.Ref.Column != sel.GroupBy {
			return nil, nil, fmt.Errorf("cql: with GROUP BY %s, the first select item must be %s",
				sel.GroupBy, sel.GroupBy)
		}
		name := f.Name
		if sel.Items[0].Alias != "" {
			name = sel.Items[0].Alias
		}
		outFields = append(outFields, tuple.Field{Name: name, Kind: f.Kind})
	}
	items := sel.Items
	if groupCol >= 0 {
		items = items[1:]
	}
	var specs []ops.AggSpec
	for _, it := range items {
		if it.Agg == "" {
			return nil, nil, errf(it.Pos, "non-aggregate select item in an aggregate query")
		}
		fn, err := ops.ParseAggFunc(it.Agg)
		if err != nil {
			return nil, nil, errf(it.Pos, "%v", err)
		}
		col := -1
		var argKind tuple.ValueKind = tuple.FloatKind
		if fn != ops.Count {
			if it.AggArg == "" {
				return nil, nil, errf(it.Pos, "%s requires a column argument", it.Agg)
			}
			i, f, err := resolveCol(ColRef{Column: it.AggArg, Pos: it.Pos}, relSchema)
			if err != nil {
				return nil, nil, err
			}
			col = i
			argKind = f.Kind
		}
		name := it.Alias
		if name == "" {
			name = it.Agg
			if it.AggArg != "" {
				name += "_" + it.AggArg
			}
		}
		kind := tuple.FloatKind
		switch fn {
		case ops.Count:
			kind = tuple.IntKind
		case ops.Min, ops.Max:
			kind = argKind
		}
		outFields = append(outFields, tuple.Field{Name: name, Kind: kind})
		specs = append(specs, ops.AggSpec{Fn: fn, Col: col})
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("cql: aggregate query without aggregate functions")
	}
	out := tuple.NewSchema(relSchema.Name+"_agg", outFields...).WithTS(relSchema.TS)
	width := sel.Window
	build := func(g *graph.Graph, in graph.NodeID) (graph.NodeID, error) {
		a := ops.NewSlidingAggregate("aggregate", out, width, slide, groupCol, specs...)
		return g.AddNode(a, in), nil
	}
	return out, build, nil
}

// iwpMode derives the IWP execution mode from the input timestamp kinds.
func iwpMode(streams []*tuple.Schema) (ops.IWPMode, error) {
	latent := 0
	for _, s := range streams {
		if s.TS == tuple.Latent {
			latent++
		}
	}
	switch latent {
	case 0:
		return ops.TSM, nil
	case len(streams):
		return ops.LatentMode, nil
	default:
		return 0, fmt.Errorf("cql: cannot mix latent and timestamped streams in one query")
	}
}

// unionCompatible verifies two schemas can be unioned (same arity, same
// kinds, same timestamp kind).
func unionCompatible(a, b *tuple.Schema) error {
	if a.Arity() != b.Arity() {
		return fmt.Errorf("cql: union of %s and %s: arity %d vs %d",
			a.Name, b.Name, a.Arity(), b.Arity())
	}
	for i := range a.Fields {
		if a.Fields[i].Kind != b.Fields[i].Kind {
			return fmt.Errorf("cql: union of %s and %s: field %d kind %v vs %v",
				a.Name, b.Name, i, a.Fields[i].Kind, b.Fields[i].Kind)
		}
	}
	if a.TS != b.TS {
		return fmt.Errorf("cql: union of %s and %s: timestamp kinds differ (%v vs %v)",
			a.Name, b.Name, a.TS, b.TS)
	}
	return nil
}
