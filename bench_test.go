// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure; see DESIGN.md §3 for the experiment index) plus
// micro-benchmarks of the substrates. The figure benchmarks report the
// metric the paper plots (latency in ms, peak queue in tuples, idle-waiting
// in percent) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced numbers alongside the usual ns/op.
package streammill_test

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cql"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/window"
)

// benchConfig trims the paper's setup for benchmark iterations while keeping
// enough sparse-stream arrivals for stable results.
func benchConfig(s experiments.Scenario) experiments.Config {
	cfg := experiments.Default(s)
	cfg.Horizon = 300 * tuple.Second
	cfg.Warmup = 50 * tuple.Second
	return cfg
}

// BenchmarkFigure7 regenerates Figure 7 (average output latency) per
// scenario; the "latency_ms" metric is the figure's Y value.
func BenchmarkFigure7(b *testing.B) {
	cases := []struct {
		name string
		cfg  experiments.Config
	}{
		{"A_noETS", benchConfig(experiments.ScenarioA)},
		{"B_periodic10", func() experiments.Config {
			c := benchConfig(experiments.ScenarioB)
			c.HeartbeatRate = 10
			return c
		}()},
		{"B_periodic100", func() experiments.Config {
			c := benchConfig(experiments.ScenarioB)
			c.HeartbeatRate = 100
			return c
		}()},
		{"C_onDemand", benchConfig(experiments.ScenarioC)},
		{"D_latent", benchConfig(experiments.ScenarioD)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var last experiments.Result
			for i := 0; i < b.N; i++ {
				last = experiments.Run(c.cfg)
			}
			b.ReportMetric(last.MeanLatency.Millis(), "latency_ms")
		})
	}
}

// BenchmarkFigure8 regenerates Figure 8 (peak total queue size).
func BenchmarkFigure8(b *testing.B) {
	cases := []struct {
		name string
		cfg  experiments.Config
	}{
		{"A_noETS", benchConfig(experiments.ScenarioA)},
		{"B_periodic1", func() experiments.Config {
			c := benchConfig(experiments.ScenarioB)
			c.HeartbeatRate = 1
			return c
		}()},
		{"B_periodic1000", func() experiments.Config {
			c := benchConfig(experiments.ScenarioB)
			c.HeartbeatRate = 1000
			return c
		}()},
		{"C_onDemand", benchConfig(experiments.ScenarioC)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var last experiments.Result
			for i := 0; i < b.N; i++ {
				last = experiments.Run(c.cfg)
			}
			b.ReportMetric(float64(last.PeakQueue), "peak_tuples")
		})
	}
}

// BenchmarkIdleWaiting regenerates the §6 idle-waiting table.
func BenchmarkIdleWaiting(b *testing.B) {
	cases := []struct {
		name string
		cfg  experiments.Config
	}{
		{"A_noETS", benchConfig(experiments.ScenarioA)},
		{"B_periodic100", func() experiments.Config {
			c := benchConfig(experiments.ScenarioB)
			c.HeartbeatRate = 100
			return c
		}()},
		{"C_onDemand", benchConfig(experiments.ScenarioC)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var last experiments.Result
			for i := 0; i < b.N; i++ {
				last = experiments.Run(c.cfg)
			}
			b.ReportMetric(last.IdleFraction*100, "idle_pct")
		})
	}
}

// BenchmarkSimultaneous regenerates the §4.1 simultaneous-tuples comparison
// (E6): Figure-1 rules vs TSM registers under coarse timestamps.
func BenchmarkSimultaneous(b *testing.B) {
	coarse := func(basic bool) experiments.Config {
		c := benchConfig(experiments.ScenarioC)
		c.External = true
		c.CoarseTs = 100 * tuple.Millisecond
		c.Delta = 100 * tuple.Millisecond
		c.Rate2 = 5
		c.BasicIWP = basic
		return c
	}
	for _, bc := range []struct {
		name  string
		basic bool
	}{{"BasicRules", true}, {"TSMRules", false}} {
		b.Run(bc.name, func(b *testing.B) {
			var last experiments.Result
			for i := 0; i < b.N; i++ {
				last = experiments.Run(coarse(bc.basic))
			}
			b.ReportMetric(last.MeanLatency.Millis(), "latency_ms")
		})
	}
}

// BenchmarkJoinQuery regenerates E7: the window-join variant.
func BenchmarkJoinQuery(b *testing.B) {
	for _, s := range []experiments.Scenario{experiments.ScenarioA, experiments.ScenarioC} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := benchConfig(s)
			cfg.Query = experiments.JoinQuery
			var last experiments.Result
			for i := 0; i < b.N; i++ {
				last = experiments.Run(cfg)
			}
			b.ReportMetric(last.MeanLatency.Millis(), "latency_ms")
			b.ReportMetric(float64(last.PeakQueue), "peak_tuples")
		})
	}
}

// BenchmarkExternalSkew regenerates E8: external timestamps with skew δ.
func BenchmarkExternalSkew(b *testing.B) {
	for _, dm := range []int64{0, 50, 500} {
		b.Run(fmt.Sprintf("delta%dms", dm), func(b *testing.B) {
			cfg := benchConfig(experiments.ScenarioC)
			cfg.External = true
			cfg.Delta = tuple.Time(dm) * tuple.Millisecond
			var last experiments.Result
			for i := 0; i < b.N; i++ {
				last = experiments.Run(cfg)
			}
			b.ReportMetric(last.MeanLatency.Millis(), "latency_ms")
		})
	}
}

// BenchmarkAblations covers AB1 (backtrack target), AB3 (scheduling) and
// AB4 (cost sensitivity); AB2/AB5 run via cmd/etsbench.
func BenchmarkAblations(b *testing.B) {
	mods := []struct {
		name string
		mod  func(*experiments.Config)
	}{
		{"BlockingInputBacktrack", func(*experiments.Config) {}},
		{"FirstPredBacktrack", func(c *experiments.Config) { c.BacktrackFirstPred = true }},
		{"RoundRobinSched", func(c *experiments.Config) { c.Strategy = exec.RoundRobin }},
		{"Cost5us", func(c *experiments.Config) { c.CostPerStep = 5 }},
		{"Cost80us", func(c *experiments.Config) { c.CostPerStep = 80 }},
	}
	for _, m := range mods {
		b.Run(m.name, func(b *testing.B) {
			cfg := benchConfig(experiments.ScenarioC)
			m.mod(&cfg)
			var last experiments.Result
			for i := 0; i < b.N; i++ {
				last = experiments.Run(cfg)
			}
			b.ReportMetric(last.MeanLatency.Millis(), "latency_ms")
		})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkBufferPushPop measures the arc buffer.
func BenchmarkBufferPushPop(b *testing.B) {
	q := buffer.New("bench")
	t := tuple.NewData(1, tuple.Int(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(t)
		q.Pop()
	}
}

// BenchmarkWindowInsert measures window maintenance with expiration.
func BenchmarkWindowInsert(b *testing.B) {
	w := window.NewStore(window.TimeWindow(1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Insert(tuple.NewData(tuple.Time(i)))
	}
}

// BenchmarkUnionMerge measures the TSM union's per-tuple cost through the
// DFS engine on a pre-filled graph.
func BenchmarkUnionMerge(b *testing.B) {
	g := graph.New("bench")
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind})
	s1 := ops.NewSource("s1", sch, 0)
	s2 := ops.NewSource("s2", sch, 0)
	a := g.AddNode(s1)
	c := g.AddNode(s2)
	u := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), a, c)
	g.AddNode(ops.NewSink("k", nil), u)
	clock := tuple.Time(0)
	e := exec.MustNew(g, nil, func() tuple.Time { return clock })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock++
		s1.Ingest(tuple.NewData(0, tuple.Int(int64(i))), clock)
		s2.Ingest(tuple.NewData(0, tuple.Int(int64(i))), clock)
		e.Run(64)
	}
}

// BenchmarkJoinProbe measures the window join's per-tuple cost.
func BenchmarkJoinProbe(b *testing.B) {
	g := graph.New("bench")
	sch := tuple.NewSchema("s", tuple.Field{Name: "k", Kind: tuple.IntKind})
	s1 := ops.NewSource("s1", sch, 0)
	s2 := ops.NewSource("s2", sch, 0)
	a := g.AddNode(s1)
	c := g.AddNode(s2)
	j := g.AddNode(ops.NewWindowJoin("j", nil, window.RowWindow(64), ops.EquiJoin(0, 0), ops.TSM), a, c)
	g.AddNode(ops.NewSink("k", nil), j)
	clock := tuple.Time(0)
	e := exec.MustNew(g, nil, func() tuple.Time { return clock })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock++
		s1.Ingest(tuple.NewData(0, tuple.Int(int64(i%128))), clock)
		s2.Ingest(tuple.NewData(0, tuple.Int(int64(i%128))), clock)
		e.Run(256)
	}
}

// BenchmarkJoinHashVsNestedLoop compares equi-join probe strategies at a
// window size where scans hurt (row window of 512, 64 distinct keys).
func BenchmarkJoinHashVsNestedLoop(b *testing.B) {
	build := func(hashed bool) (*exec.Engine, *ops.Source, *ops.Source, *tuple.Time) {
		g := graph.New("bench")
		sch := tuple.NewSchema("s", tuple.Field{Name: "k", Kind: tuple.IntKind})
		s1 := ops.NewSource("s1", sch, 0)
		s2 := ops.NewSource("s2", sch, 0)
		a := g.AddNode(s1)
		c := g.AddNode(s2)
		var j ops.Operator
		if hashed {
			j = ops.NewHashWindowJoin("j", nil, window.RowWindow(512), window.RowWindow(512), 0, 0, ops.TSM)
		} else {
			j = ops.NewWindowJoin("j", nil, window.RowWindow(512), ops.EquiJoin(0, 0), ops.TSM)
		}
		jn := g.AddNode(j, a, c)
		g.AddNode(ops.NewSink("k", nil), jn)
		clock := new(tuple.Time)
		e := exec.MustNew(g, nil, func() tuple.Time { return *clock })
		return e, s1, s2, clock
	}
	for _, hashed := range []bool{false, true} {
		name := "NestedLoop"
		if hashed {
			name = "Hash"
		}
		b.Run(name, func(b *testing.B) {
			e, s1, s2, clock := build(hashed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*clock++
				s1.Ingest(tuple.NewData(0, tuple.Int(int64(i%64))), *clock)
				s2.Ingest(tuple.NewData(0, tuple.Int(int64((i+32)%64))), *clock)
				e.Run(256)
			}
		})
	}
}

// BenchmarkCQLParse measures statement parsing.
func BenchmarkCQLParse(b *testing.B) {
	q := "SELECT loc, avg(temp) AS t, count(*) FROM sensors WHERE temp > 30.0 AND loc != 'x' GROUP BY loc WINDOW 10s"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// buildRuntimeUnion assembles the union workload for the runtime throughput
// benchmarks: two sources merging into a TSM union feeding a sink.
func buildRuntimeUnion(b *testing.B, opts runtime.Options) (*runtime.Engine, *ops.Source, *ops.Source) {
	b.Helper()
	g := graph.New("bench")
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind})
	s1 := ops.NewSource("s1", sch, 0)
	s2 := ops.NewSource("s2", sch, 0)
	a := g.AddNode(s1)
	c := g.AddNode(s2)
	u := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), a, c)
	g.AddNode(ops.NewSink("k", nil), u)
	e, err := runtime.New(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	return e, s1, s2
}

// BenchmarkRuntimeThroughput measures the concurrent engine end to end:
// PerTuple is the unbatched baseline (BatchSize 1, one channel send and one
// heap tuple per arc hop); Batched64 is the micro-batched data plane at the
// default batch size; PerTupleDefault is the paper's scenario C ingest — one
// Ingest call per tuple, 999:1 across the two sources, default batching —
// so one op is one tuple through the source inlets.
func BenchmarkRuntimeThroughput(b *testing.B) {
	b.Run("PerTuple", func(b *testing.B) {
		e, s1, s2 := buildRuntimeUnion(b, runtime.Options{
			OnDemandETS: true, BatchSize: 1,
		})
		e.Start()
		t := tuple.NewData(0, tuple.Int(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Ingest(s1, t.Clone())
			e.Ingest(s2, t.Clone())
		}
		e.CloseStream(s1)
		e.CloseStream(s2)
		e.Wait()
	})
	b.Run("Batched64", func(b *testing.B) {
		e, s1, s2 := buildRuntimeUnion(b, runtime.Options{
			OnDemandETS: true, BatchSize: 64,
		})
		e.Start()
		const span = 64
		var mag tuple.Magazine
		raws := make([]*tuple.Tuple, 0, span)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += span {
			n := span
			if rem := b.N - i; rem < n {
				n = rem
			}
			raws = raws[:0]
			for j := 0; j < n; j++ {
				t := mag.Get()
				t.Vals = append(t.Vals, tuple.Int(1))
				raws = append(raws, t)
			}
			e.IngestBatch(s1, raws)
			raws = raws[:0]
			for j := 0; j < n; j++ {
				t := mag.Get()
				t.Vals = append(t.Vals, tuple.Int(1))
				raws = append(raws, t)
			}
			e.IngestBatch(s2, raws)
		}
		e.CloseStream(s1)
		e.CloseStream(s2)
		e.Wait()
	})
	b.Run("PerTupleDefault", func(b *testing.B) {
		e, s1, s2 := buildRuntimeUnion(b, runtime.Options{OnDemandETS: true})
		e.Start()
		t := tuple.NewData(0, tuple.Int(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1000 == 999 {
				e.Ingest(s2, t.Clone())
			} else {
				e.Ingest(s1, t.Clone())
			}
		}
		e.CloseStream(s1)
		e.CloseStream(s2)
		e.Wait()
	})
}

// BenchmarkQueueBatchOps compares per-tuple Push/Pop against the batched
// PushAll/PopAll path the runtime's arc delivery uses.
func BenchmarkQueueBatchOps(b *testing.B) {
	const span = 64
	batch := make([]*tuple.Tuple, span)
	for i := range batch {
		batch[i] = tuple.NewData(tuple.Time(i))
	}
	b.Run("PushPop", func(b *testing.B) {
		q := buffer.New("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Push(batch[i%span])
			q.Pop()
		}
	})
	b.Run("PushAllPopAll", func(b *testing.B) {
		q := buffer.New("bench")
		dst := make([]*tuple.Tuple, 0, span)
		b.ResetTimer()
		for i := 0; i < b.N; i += span {
			q.PushAll(batch)
			dst = q.PopAll(dst[:0])
		}
	})
}

// BenchmarkGroupObserve measures the Figure-8 sampling cost, which the
// single-threaded engine pays on every execution step. The incremental
// running total makes it O(1) in the number of arcs.
func BenchmarkGroupObserve(b *testing.B) {
	for _, arcs := range []int{4, 64} {
		b.Run(fmt.Sprintf("arcs%d", arcs), func(b *testing.B) {
			g := buffer.NewGroup()
			for i := 0; i < arcs; i++ {
				q := buffer.New(fmt.Sprintf("q%d", i))
				q.Push(tuple.NewData(1))
				g.Add(q)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Observe()
			}
		})
	}
}
