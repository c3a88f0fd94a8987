package dist

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/tuple"
)

// distScript compiles to a graph with two partitionable IWP operators (a
// TSM union feeding a window equi-join), so the shard rewrite produces the
// splitter/shard/merge shape whose arc ordering the cut must preserve.
const distScript = `
	CREATE STREAM a (k int, v float);
	CREATE STREAM b (k int, w float);
	CREATE STREAM c (k int, v float);
	SELECT a.k, v, w FROM a JOIN b ON a.k = b.k WINDOW 2s;
	SELECT * FROM a UNION c WHERE v > 0.0;
`

func testSpec(workers, shards int) *Spec {
	ws := make([]string, workers)
	for i := range ws {
		ws[i] = fmt.Sprintf("127.0.0.1:%d", 7000+i)
	}
	return &Spec{
		Plan:      7,
		Script:    distScript,
		Shards:    shards,
		Workers:   ws,
		LinkDelta: 250_000,
	}
}

func TestSpecCodecRoundTripByteIdentical(t *testing.T) {
	specs := []*Spec{
		testSpec(1, 0),
		testSpec(3, 2),
		{Plan: 1, Script: "", Workers: []string{"x"}, Placement: []int32{0, 0, 0}},
		{Plan: 1 << 62, Script: strings.Repeat("s", 1000), Shards: 9, Self: 4,
			Workers:   []string{"a", "b", "c", "d", "e"},
			Placement: []int32{4, 3, 2, 1, 0}, LinkDelta: tuple.Time(1) << 40},
	}
	for i, s := range specs {
		if len(s.Placement) == 0 {
			s.Placement = []int32{0}
		}
		b1 := s.Encode()
		dec, err := DecodeSpec(b1)
		if err != nil {
			t.Fatalf("spec %d: decode: %v", i, err)
		}
		b2 := dec.Encode()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("spec %d: round trip not byte-identical:\n%x\n%x", i, b1, b2)
		}
		if dec.Plan != s.Plan || dec.Script != s.Script || dec.Shards != s.Shards ||
			dec.Self != s.Self || dec.LinkDelta != s.LinkDelta {
			t.Fatalf("spec %d: fields mangled: %+v", i, dec)
		}
	}
}

func TestSpecDecodeRejectsHostilePayloads(t *testing.T) {
	good := testSpec(2, 2)
	good.Placement = []int32{0, 1}
	enc := good.Encode()
	cases := map[string][]byte{
		"empty":          {},
		"bad-version":    append([]byte{SpecVersion + 1}, enc[1:]...),
		"truncated":      enc[:len(enc)-1],
		"trailing":       append(append([]byte(nil), enc...), 0),
		"huge-workers":   hostileCount(t, 1<<20, false),
		"huge-placement": hostileCount(t, 1<<40, true),
	}
	for name, b := range cases {
		if _, err := DecodeSpec(b); err == nil {
			t.Errorf("%s: decode accepted hostile payload", name)
		}
	}
	// Structural validation after a clean parse.
	noWorkers := &Spec{Plan: 1, Placement: nil}
	noWorkers.Workers = nil
	if _, err := DecodeSpec(noWorkers.Encode()); err == nil {
		t.Error("no-workers spec accepted")
	}
	badPlace := testSpec(2, 0)
	badPlace.Placement = []int32{5}
	if _, err := DecodeSpec(badPlace.Encode()); err == nil {
		t.Error("out-of-range placement accepted")
	}
	badSelf := testSpec(2, 0)
	badSelf.Placement = []int32{0}
	badSelf.Self = 9
	if _, err := DecodeSpec(badSelf.Encode()); err == nil {
		t.Error("out-of-range self accepted")
	}
}

// hostileCount hand-builds a spec payload whose worker (or placement) count
// claims far more entries than the payload holds.
func hostileCount(t *testing.T, n uint64, placement bool) []byte {
	t.Helper()
	var e ckpt.Encoder
	e.U8(SpecVersion)
	e.U64(1)
	e.String("s")
	e.Uvarint(0) // shards
	e.Uvarint(0) // self
	if placement {
		e.Uvarint(1)
		e.String("w")
		e.Uvarint(n)
	} else {
		e.Uvarint(n)
	}
	return e.Bytes()
}

// lcg is a tiny deterministic generator for property-test placements.
type lcg uint64

func (r *lcg) next(n int) int {
	*r = *r*6364136223846793005 + 1442695040888963407
	return int(uint64(*r>>33) % uint64(n))
}

// TestCutReassembly is the satellite property test: for any placement of a
// compiled (and shard-rewritten) graph, the cut plus the per-executor
// fragments reassemble into the original topology — same nodes, same arc
// order per producer (the splitter EmitTo invariant), same schemas and
// timestamp kinds — with every severed arc appearing as exactly one
// egress/ingress pair.
func TestCutReassembly(t *testing.T) {
	for _, shards := range []int{0, 2, 3} {
		spec := testSpec(3, shards)
		eng := newTestEngine(t, spec.Script)
		g, _ := partition.Rewrite(eng.Graph(), shards)
		placements := [][]int32{
			make([]int32, g.Len()), // everything on the coordinator
			alternate(g.Len(), 3),
		}
		r := lcg(uint64(shards) + 1)
		for i := 0; i < 25; i++ {
			p := make([]int32, g.Len())
			for j := range p {
				p[j] = int32(r.next(3))
			}
			placements = append(placements, p)
		}
		for pi, p := range placements {
			spec.Placement = p
			checkReassembly(t, g, spec, fmt.Sprintf("shards=%d placement=%d", shards, pi))
		}
	}
}

// newTestEngine compiles the script into a fresh core engine, the same way
// every executor does.
func newTestEngine(t *testing.T, script string) *core.Engine {
	t.Helper()
	eng := core.NewEngine()
	if _, err := eng.ExecuteScript(script, nil); err != nil {
		t.Fatal(err)
	}
	return eng
}

func alternate(n, execs int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i % execs)
	}
	return p
}

func checkReassembly(t *testing.T, g *graph.Graph, spec *Spec, label string) {
	t.Helper()
	cut, err := MakeCut(g, spec)
	if err != nil {
		t.Fatalf("%s: MakeCut: %v", label, err)
	}
	if err := cut.Verify(g, spec); err != nil {
		t.Fatalf("%s: Verify: %v", label, err)
	}
	owned := 0
	seenOps := make(map[ops.Operator]int)
	for exec := range spec.Workers {
		b, err := BuildFragment(g, cut, spec.WithSelf(exec))
		if err != nil {
			t.Fatalf("%s: BuildFragment(%d): %v", label, exec, err)
		}
		for full, fid := range b.NodeOf {
			owned++
			fn := b.Graph.Node(fid)
			gn := g.Node(full)
			if fn.Op != gn.Op {
				t.Fatalf("%s: exec %d node %d: operator identity lost", label, exec, full)
			}
			if prev, dup := seenOps[gn.Op]; dup {
				t.Fatalf("%s: operator of node %d in fragments %d and %d", label, full, prev, exec)
			}
			seenOps[gn.Op] = exec
			// Arc-order preservation: the fragment out-arcs of an owned
			// producer must line up index-for-index with the full graph's.
			if len(fn.Out) != len(gn.Out) {
				t.Fatalf("%s: exec %d node %d: %d out arcs, want %d",
					label, exec, full, len(fn.Out), len(gn.Out))
			}
			for i, fullArc := range gn.Out {
				fragTo := b.Graph.Node(fn.Out[i].To)
				if int(spec.Placement[fullArc.To]) == exec {
					if fn.Out[i].To != b.NodeOf[fullArc.To] || fn.Out[i].Port != fullArc.Port {
						t.Fatalf("%s: exec %d node %d out[%d]: wrong local consumer",
							label, exec, full, i)
					}
					continue
				}
				eg, ok := fragTo.Op.(*Egress)
				if !ok {
					t.Fatalf("%s: exec %d node %d out[%d]: cut arc not terminated by egress",
						label, exec, full, i)
				}
				wantName := "egress:" + linkName(spec.Plan, fullArc)
				if eg.Name() != wantName {
					t.Fatalf("%s: exec %d node %d out[%d]: egress %q, want %q",
						label, exec, full, i, eg.Name(), wantName)
				}
			}
			// Schema and timestamp-kind preservation for owned nodes.
			fs, gs := fn.Op.OutSchema(), gn.Op.OutSchema()
			if (fs == nil) != (gs == nil) || (fs != nil && fs.TS != gs.TS) {
				t.Fatalf("%s: exec %d node %d: schema kind changed", label, exec, full)
			}
		}
		// Every ingress link source carries the producer's fields re-kinded
		// to external timestamps.
		for name, src := range b.Links {
			var ca *CutArc
			for _, a := range cut.Arcs {
				if a.Name == name {
					ca = a
				}
			}
			if ca == nil {
				t.Fatalf("%s: exec %d: ingress %q not in cut", label, exec, name)
			}
			sch := src.OutSchema()
			if sch.TS != tuple.External {
				t.Fatalf("%s: ingress %q not external", label, name)
			}
			want := g.Node(ca.From).Op.OutSchema()
			if len(sch.Fields) != len(want.Fields) {
				t.Fatalf("%s: ingress %q arity %d, want %d", label, name, len(sch.Fields), len(want.Fields))
			}
			for i := range want.Fields {
				if sch.Fields[i].Kind != want.Fields[i].Kind {
					t.Fatalf("%s: ingress %q field %d kind changed", label, name, i)
				}
			}
		}
	}
	if owned != g.Len() {
		t.Fatalf("%s: fragments own %d of %d nodes", label, owned, g.Len())
	}
}

func TestAutoPlaceShardsRoundRobin(t *testing.T) {
	spec := testSpec(3, 2)
	eng := newTestEngine(t, spec.Script)
	g, plan := partition.Rewrite(eng.Graph(), spec.Shards)
	p := AutoPlace(g, plan, len(spec.Workers))
	if len(plan.Ops) == 0 {
		t.Fatal("script produced no partitioned operators")
	}
	workerNodes := 0
	for _, sh := range plan.Ops {
		for s, id := range sh.ShardIDs {
			want := int32(1 + s%2)
			if p[id] != want {
				t.Fatalf("shard %d of %s on executor %d, want %d", s, sh.Name, p[id], want)
			}
			workerNodes++
		}
		if p[sh.Merge] != 0 {
			t.Fatalf("merge of %s not on coordinator", sh.Name)
		}
		for _, sp := range sh.Splitters {
			if p[sp] != 0 {
				t.Fatalf("splitter of %s not on coordinator", sh.Name)
			}
		}
	}
	if workerNodes == 0 {
		t.Fatal("no shard nodes placed on workers")
	}
	spec.Placement = p
	checkReassembly(t, g, spec, "autoplace")
}
