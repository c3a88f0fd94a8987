package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	rt "repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/window"
)

// The columnar benchmark compares the row data plane against the columnar
// one (Options.Columnar + ColBatch ingest) on two pipelines:
//
//   - hotpath: source → filter (~30% pass) → project (drop a column) →
//     hash-split (2 shards) → per-shard tumbling aggregate → sink. Every
//     stage between source and sink runs columnar; this is the
//     filter/project/hash pipeline the tentpole targets.
//   - join: source → filter → TSM hash window-join against a sparse
//     reference stream → aggregate → sink. The join itself is a
//     register-ordered row operator (the runtime converts at its arcs), so
//     this measures the columnar plane in a mixed graph.
//
// Latency is sampled at the sinks as now − ts on aggregate output rows,
// i.e. the delay between a window becoming closable (its end passing under
// the advancing bound) and its result reaching the sink — an ETS-latency
// proxy that the flush rules must keep flat when batches go columnar.

type colConfig struct {
	Name     string `json:"name"`
	Columnar bool   `json:"columnar"`
}

type colResult struct {
	colConfig
	Workload       string  `json:"workload"`
	Tuples         uint64  `json:"tuples"`
	Seconds        float64 `json:"seconds"`
	TuplesPerSec   float64 `json:"tuples_per_sec"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
	BytesPerTuple  float64 `json:"bytes_per_tuple"`
	LatencyP50Us   float64 `json:"latency_p50_us"`
	LatencyP99Us   float64 `json:"latency_p99_us"`
	RowsOut        uint64  `json:"rows_out"`
	BatchesSent    uint64  `json:"batches_sent"`
	TuplesSent     uint64  `json:"tuples_sent"`
	ETSGenerated   uint64  `json:"ets_generated"`
}

type colReport struct {
	Tuples        int         `json:"tuples_per_config"`
	GoVersion     string      `json:"go_version"`
	Date          string      `json:"date"`
	Results       []colResult `json:"results"`
	HotpathX      float64     `json:"hotpath_col_vs_row_speedup_x"`
	HotpathP50X   float64     `json:"hotpath_col_vs_row_p50_latency_x"`
	JoinPipelineX float64     `json:"join_col_vs_row_speedup_x"`
}

// colLCG is the shared deterministic value generator: both configs must
// push byte-identical workloads.
type colLCG uint64

func (g *colLCG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *colLCG) row() (key int64, x float64, pay int64) {
	v := g.next()
	return int64((v >> 33) % 64), float64((v>>11)&0xFFFFF) / float64(1<<20), int64(v % 1024)
}

const (
	colSpan      = 256    // tuples per ingest call
	colThreshold = 0.3    // filter pass fraction
	colWindow    = 5_000  // aggregate window width, µs
	colGroups    = 64     // distinct keys
	colRefEvery  = 10_000 // main tuples between reference refreshes (join)
	colBatchSize = 256    // engine arc batch size, both configs
)

// colPipelineFilter builds the shared source → filter → … prefix and
// returns the filter predicate wiring. Schema: [key int, x float, pay int].
func newColFilter(name string) *ops.Select {
	sel := ops.NewSelect(name, nil, func(t *tuple.Tuple) bool {
		return t.Vals[1].AsFloat() < colThreshold
	})
	sel.SetColPredicate(func(b *tuple.ColBatch, keep []bool) {
		c := &b.Cols[1]
		if c.Any == nil && c.Kind == tuple.FloatKind && c.Valid.AllSet(b.Len()) {
			for r, x := range c.F64[:b.Len()] {
				keep[r] = x < colThreshold
			}
			return
		}
		for r := range keep {
			keep[r] = b.Value(1, r).AsFloat() < colThreshold
		}
	})
	return sel
}

// feedRows ingests total main-stream tuples as pooled row batches.
func feedRows(e *rt.Engine, src *ops.Source, total int, ref func(i int)) {
	var g colLCG
	var mag tuple.Magazine
	raws := make([]*tuple.Tuple, 0, colSpan)
	for i := 0; i < total; i += colSpan {
		n := min(colSpan, total-i)
		raws = raws[:0]
		for j := 0; j < n; j++ {
			key, x, pay := g.row()
			t := mag.Get()
			t.Vals = append(t.Vals, tuple.Int(key), tuple.Float(x), tuple.Int(pay))
			raws = append(raws, t)
		}
		e.IngestBatch(src, raws)
		if ref != nil {
			ref(i)
		}
	}
}

// feedCols ingests the identical workload as columnar batches built
// directly in column storage.
func feedCols(e *rt.Engine, src *ops.Source, total int, ref func(i int)) {
	var g colLCG
	for i := 0; i < total; i += colSpan {
		n := min(colSpan, total-i)
		cb := tuple.GetColBatch(3)
		c0, c1, c2 := &cb.Cols[0], &cb.Cols[1], &cb.Cols[2]
		c0.Kind, c1.Kind, c2.Kind = tuple.IntKind, tuple.FloatKind, tuple.IntKind
		for j := 0; j < n; j++ {
			key, x, pay := g.row()
			c0.I64 = append(c0.I64, key)
			c1.F64 = append(c1.F64, x)
			c2.I64 = append(c2.I64, pay)
			cb.Ts = append(cb.Ts, 0) // internal stream: stamped at ingest
		}
		c0.Valid.SetAll(n)
		c1.Valid.SetAll(n)
		c2.Valid.SetAll(n)
		cb.SetLen(n)
		e.IngestColBatch(src, cb)
		if ref != nil {
			ref(i)
		}
	}
}

// runColHotpath measures one config on the filter/project/hash/aggregate
// pipeline.
func runColHotpath(cfg colConfig, total int) colResult {
	sch := tuple.NewSchema("s",
		tuple.Field{Name: "key", Kind: tuple.IntKind},
		tuple.Field{Name: "x", Kind: tuple.FloatKind},
		tuple.Field{Name: "pay", Kind: tuple.IntKind})
	g := graph.New("colbench")
	src := ops.NewSource("src", sch, 0)
	a := g.AddNode(src)
	f := g.AddNode(newColFilter("filter"), a)
	// Non-identity projection: keep [key, x], drop the payload column.
	p := g.AddNode(ops.NewProject("proj", nil, []int{0, 1}), f)
	sp := g.AddNode(ops.NewSplit("split", nil, 2, 0), p)

	// The two sinks run on their own node goroutines, so the shared
	// accumulator needs a lock; callbacks fire once per closed window per
	// group, rare enough that the lock is invisible in the numbers.
	lat := metrics.NewLatency()
	var mu sync.Mutex
	var rowsOut uint64
	sink := func(t *tuple.Tuple, now tuple.Time) {
		mu.Lock()
		rowsOut++
		lat.Observe(now - t.Ts)
		mu.Unlock()
	}
	for s := 0; s < 2; s++ {
		ag := g.AddNode(ops.NewAggregate(fmt.Sprintf("agg%d", s), nil, colWindow, 0,
			ops.AggSpec{Fn: ops.Sum, Col: 1}, ops.AggSpec{Fn: ops.Count}), sp)
		g.AddNode(ops.NewSink(fmt.Sprintf("sink%d", s), sink), ag)
	}
	return runColConfig(cfg, total, "hotpath", g, src, nil, lat, &rowsOut)
}

// runColJoin measures one config on the filter → TSM hash join → aggregate
// pipeline. The reference side refreshes one tuple per key every
// colRefEvery main tuples; the join is row-mode, so the columnar config
// exercises the arc-boundary converters.
func runColJoin(cfg colConfig, total int) colResult {
	schM := tuple.NewSchema("m",
		tuple.Field{Name: "key", Kind: tuple.IntKind},
		tuple.Field{Name: "x", Kind: tuple.FloatKind},
		tuple.Field{Name: "pay", Kind: tuple.IntKind})
	schR := tuple.NewSchema("r",
		tuple.Field{Name: "key", Kind: tuple.IntKind},
		tuple.Field{Name: "w", Kind: tuple.FloatKind})
	g := graph.New("coljoin")
	src := ops.NewSource("src", schM, 0)
	refs := ops.NewSource("refs", schR, 0)
	a := g.AddNode(src)
	b := g.AddNode(refs)
	f := g.AddNode(newColFilter("filter"), a)
	// Keep probe cost bounded and deterministic: the main side retains the
	// last colGroups rows, the reference side one generation of refs.
	j := g.AddNode(ops.NewHashWindowJoin("join", nil,
		window.RowWindow(colGroups), window.RowWindow(colGroups), 0, 0, ops.TSM), f, b)
	ag := g.AddNode(ops.NewAggregate("agg", nil, colWindow, 0,
		ops.AggSpec{Fn: ops.Sum, Col: 4}, ops.AggSpec{Fn: ops.Count}), j)

	lat := metrics.NewLatency()
	var rowsOut uint64
	g.AddNode(ops.NewSink("sink", func(t *tuple.Tuple, now tuple.Time) {
		rowsOut++
		lat.Observe(now - t.Ts)
	}), ag)

	refFeed := func(e *rt.Engine) func(i int) {
		var rg colLCG
		return func(i int) {
			if i%colRefEvery != 0 {
				return
			}
			batch := make([]*tuple.Tuple, 0, colGroups)
			for k := 0; k < colGroups; k++ {
				w := float64(rg.next()&0xFFFF) / float64(1<<16)
				batch = append(batch, tuple.NewData(0, tuple.Int(int64(k)), tuple.Float(w)))
			}
			e.IngestBatch(refs, batch)
		}
	}
	return runColConfigWith(cfg, total, "join", g, src, refFeed, lat, &rowsOut,
		func(e *rt.Engine) { e.CloseStream(refs) })
}

func runColConfig(cfg colConfig, total int, workload string, g *graph.Graph,
	src *ops.Source, refFeed func(e *rt.Engine) func(i int),
	lat *metrics.Latency, rowsOut *uint64) colResult {
	return runColConfigWith(cfg, total, workload, g, src, refFeed, lat, rowsOut, nil)
}

func runColConfigWith(cfg colConfig, total int, workload string, g *graph.Graph,
	src *ops.Source, refFeed func(e *rt.Engine) func(i int),
	lat *metrics.Latency, rowsOut *uint64, closeExtra func(e *rt.Engine)) colResult {
	e, err := rt.New(g, rt.Options{
		OnDemandETS:  true,
		ChannelDepth: 8,
		BatchSize:    colBatchSize,
		Recycle:      true,
		Columnar:     cfg.Columnar,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "etsbench: %v\n", err)
		os.Exit(1)
	}
	e.Start()

	var ref func(i int)
	if refFeed != nil {
		ref = refFeed(e)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if cfg.Columnar {
		feedCols(e, src, total, ref)
	} else {
		feedRows(e, src, total, ref)
	}
	e.CloseStream(src)
	if closeExtra != nil {
		closeExtra(e)
	}
	e.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	n := uint64(total)
	return colResult{
		colConfig:      cfg,
		Workload:       workload,
		Tuples:         n,
		Seconds:        elapsed.Seconds(),
		TuplesPerSec:   float64(n) / elapsed.Seconds(),
		AllocsPerTuple: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerTuple:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		LatencyP50Us:   float64(lat.Percentile(50)),
		LatencyP99Us:   float64(lat.Percentile(99)),
		RowsOut:        *rowsOut,
		BatchesSent:    e.BatchesSent(),
		TuplesSent:     e.TuplesSent(),
		ETSGenerated:   e.ETSGenerated(),
	}
}

// runColumnarBench runs both pipelines under both data planes and writes
// the JSON report.
func runColumnarBench(total int, out string) {
	if total < colSpan {
		fmt.Fprintf(os.Stderr, "etsbench: -columnar-tuples must be ≥ %d (got %d)\n", colSpan, total)
		os.Exit(2)
	}
	rep := colReport{
		Tuples:    total,
		GoVersion: runtime.Version(),
		Date:      time.Now().UTC().Format(time.RFC3339),
	}
	configs := []colConfig{
		{Name: "row", Columnar: false},
		{Name: "columnar", Columnar: true},
	}
	speed := map[string]map[string]colResult{}
	for _, wl := range []struct {
		name string
		run  func(colConfig, int) colResult
		frac int // divisor applied to total (the join pipeline is heavier)
	}{
		{"hotpath", runColHotpath, 1},
		{"join", runColJoin, 4},
	} {
		speed[wl.name] = map[string]colResult{}
		for _, cfg := range configs {
			wl.run(cfg, total/wl.frac/10) // warmup: pools, scheduler, maps
			res := wl.run(cfg, total/wl.frac)
			rep.Results = append(rep.Results, res)
			speed[wl.name][cfg.Name] = res
			fmt.Printf("%-8s %-9s %10.0f tuples/s  %5.2f allocs/tuple  p50 %4.0fµs  p99 %5.0fµs  rows %d\n",
				wl.name, res.Name, res.TuplesPerSec, res.AllocsPerTuple,
				res.LatencyP50Us, res.LatencyP99Us, res.RowsOut)
		}
	}
	if r := speed["hotpath"]["row"]; r.TuplesPerSec > 0 {
		c := speed["hotpath"]["columnar"]
		rep.HotpathX = c.TuplesPerSec / r.TuplesPerSec
		if r.LatencyP50Us > 0 {
			rep.HotpathP50X = c.LatencyP50Us / r.LatencyP50Us
		}
		fmt.Printf("hotpath columnar vs row: %.2fx throughput, p50 latency %.2fx\n",
			rep.HotpathX, rep.HotpathP50X)
	}
	if r := speed["join"]["row"]; r.TuplesPerSec > 0 {
		rep.JoinPipelineX = speed["join"]["columnar"].TuplesPerSec / r.TuplesPerSec
		fmt.Printf("join pipeline columnar vs row: %.2fx throughput\n", rep.JoinPipelineX)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "etsbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "etsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
}
