package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ets"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// equivCase is one seeded workload: k internal-timestamp streams into a TSM
// union, then a filter, then the sink. plan[i] is the stream tuple i (value
// i) arrives on.
type equivCase struct {
	k       int
	plan    []int
	batched bool // IngestBatch runs instead of per-tuple Ingest
	cut     int  // the checkpoint is cut before tuple cut
}

func newEquivCase(seed int64) equivCase {
	rng := rand.New(rand.NewSource(seed))
	c := equivCase{k: 2 + rng.Intn(2), batched: seed%2 == 0}
	sparse := (seed/2)%2 == 0
	c.plan = make([]int, 1000+rng.Intn(3000))
	for i := range c.plan {
		switch {
		case !sparse:
			c.plan[i] = rng.Intn(c.k)
		case rng.Intn(100) == 0: // one in a hundred to the sparse streams
			c.plan[i] = 1 + rng.Intn(c.k-1)
		}
	}
	c.cut = rng.Intn(len(c.plan))
	return c
}

// graph builds the case's plan; rows receives every sink delivery.
func (c equivCase) graph(rows func(t *tuple.Tuple)) (*graph.Graph, []*ops.Source) {
	g := graph.New("equiv")
	srcs := make([]*ops.Source, c.k)
	ids := make([]graph.NodeID, c.k)
	for i := range srcs {
		srcs[i] = ops.NewSource(fmt.Sprintf("s%d", i), intSchema("s", tuple.Internal), 0)
		ids[i] = g.AddNode(srcs[i])
	}
	u := g.AddNode(ops.NewUnion("u", nil, c.k, ops.TSM), ids...)
	f := g.AddNode(ops.NewSelect("f", nil, func(t *tuple.Tuple) bool { return t.Vals[0].AsInt()%3 != 0 }), u)
	g.AddNode(ops.NewSink("k", func(t *tuple.Tuple, _ tuple.Time) { rows(t) }), f)
	return g, srcs
}

// reference runs the case on internal/exec's DFS engine with on-demand ETS,
// one arrival at a time, and returns the sink's values.
func (c equivCase) reference(t *testing.T) []int64 {
	var got []int64
	g, srcs := c.graph(func(t *tuple.Tuple) { got = append(got, t.Vals[0].AsInt()) })
	clock := tuple.Time(0)
	e, err := exec.New(g, &ets.OnDemand{}, func() tuple.Time { return clock })
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.plan {
		clock++
		srcs[s].Ingest(tuple.NewData(0, tuple.Int(int64(i))), clock)
		e.Run(1 << 20)
	}
	for _, s := range srcs {
		s.Offer(tuple.EOS())
	}
	e.Run(1 << 20)
	slices.Sort(got)
	return got
}

// live runs the case on the concurrent runtime and returns the sink's values,
// whether the sink saw them in timestamp order, and the engine.
func (c equivCase) live(t *testing.T) ([]int64, bool, *Engine) {
	var got []int64
	ordered := true
	prev := tuple.MinTime
	g, srcs := c.graph(func(t *tuple.Tuple) {
		got = append(got, t.Vals[0].AsInt())
		ordered = ordered && t.Ts >= prev
		prev = t.Ts
	})
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	var run []*tuple.Tuple
	flush := func(s int) {
		if len(run) > 0 {
			e.IngestBatch(srcs[s], run)
			run = run[:0]
		}
	}
	for i, s := range c.plan {
		if i == c.cut {
			if c.batched && i > 0 {
				flush(c.plan[i-1])
			}
			if _, err := e.Checkpoint(1, 10*time.Second); err != nil {
				t.Fatalf("cut before tuple %d: %v", i, err)
			}
		}
		raw := tuple.NewData(0, tuple.Int(int64(i)))
		if !c.batched {
			e.Ingest(srcs[s], raw)
			continue
		}
		if i > 0 && s != c.plan[i-1] {
			flush(c.plan[i-1])
		}
		run = append(run, raw)
	}
	flush(c.plan[len(c.plan)-1])
	for _, s := range srcs {
		e.CloseStream(s)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	return got, ordered, e
}

// TestBoundReadMatchesExec is a tier-1 slice of a differential oracle for
// the bound read: seeded random unions of 2–3 internal-timestamp streams,
// sparse and dense, fed per tuple and by IngestBatch, with one checkpoint
// cut at a random point. Each must deliver internal/exec's sink multiset, in
// timestamp order, with no tuple late.
func TestBoundReadMatchesExec(t *testing.T) {
	var reads uint64
	for seed := int64(1); seed <= 32; seed++ {
		c := newEquivCase(seed)
		want := c.reference(t)
		got, ordered, e := c.live(t)
		if !slices.Equal(got, want) {
			t.Errorf("seed %d: runtime delivered %d rows, exec %d, or other rows", seed, len(got), len(want))
		}
		if !ordered {
			t.Errorf("seed %d: sink saw rows out of timestamp order", seed)
		}
		if late := e.Snapshot().LateTuples; late != 0 {
			t.Errorf("seed %d: %d tuples late", seed, late)
		}
		reads += e.BoundReads()
	}
	if reads == 0 {
		t.Error("no bound read in any case: the slice never took the path it checks")
	}
}
