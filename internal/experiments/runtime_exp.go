package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tuple"
)

// RuntimeResult holds the metrics of one concurrent-runtime run. ETS counts
// the on-demand ETS punctuations the sources generated, BoundReads the
// bounds the union read from an idle source in place of one.
type RuntimeResult struct {
	MeanLatency tuple.Time
	P99Latency  tuple.Time
	Outputs     int
	ETS         uint64
	BoundReads  uint64
}

// RunRuntime executes the paper's union scenario on the concurrent
// goroutine engine in *real time*, with the rate skew compressed so the run
// finishes in a few wall-clock seconds: a fast stream at fastRate t/s and a
// sparse one at slowRate t/s for the given duration. onDemand toggles
// demand-driven ETS (scenario C vs scenario A semantics).
//
// Real-time runs are inherently noisy; the figure built on this compares
// orders of magnitude, which survive scheduling jitter.
func RunRuntime(fastRate, slowRate float64, dur time.Duration, onDemand bool, seed int64) RuntimeResult {
	g := graph.New("rt")
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind})
	fast := ops.NewSource("fast", sch, 0)
	slow := ops.NewSource("slow", sch, 0)
	nf := g.AddNode(fast)
	ns := g.AddNode(slow)
	u := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), nf, ns)

	lat := metrics.NewLatency()
	var mu sync.Mutex
	g.AddNode(ops.NewSink("k", func(t *tuple.Tuple, now tuple.Time) {
		mu.Lock()
		lat.Observe(now - t.Ts)
		mu.Unlock()
	}), u)

	e, err := runtime.New(g, runtime.Options{OnDemandETS: onDemand})
	if err != nil {
		panic(err)
	}
	e.Start()

	var wg sync.WaitGroup
	produce := func(src *ops.Source, rate float64, seed int64) {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed))
		deadline := time.Now().Add(dur)
		i := int64(0)
		for {
			gap := time.Duration(r.ExpFloat64() / rate * float64(time.Second))
			if gap > time.Until(deadline) {
				// The next tuple falls past the run: stay silent to the
				// deadline, as the stream would. Closing now would hand the
				// union an early EOS, a bound no sparse stream gives.
				time.Sleep(time.Until(deadline))
				break
			}
			time.Sleep(gap)
			e.Ingest(src, tuple.NewData(0, tuple.Int(i)))
			i++
		}
		e.CloseStream(src)
	}
	wg.Add(2)
	go produce(fast, fastRate, seed)
	go produce(slow, slowRate, seed+1)
	wg.Wait()
	e.Wait()

	mu.Lock()
	defer mu.Unlock()
	return RuntimeResult{
		MeanLatency: lat.Mean(),
		P99Latency:  lat.Percentile(99),
		Outputs:     lat.Count(),
		ETS:         e.ETSGenerated(),
		BoundReads:  e.BoundReads(),
	}
}

// RuntimeFigure compares no-ETS against demand-driven ETS on the concurrent
// engine (id "rt"). The rate skew is 500:1 over two wall seconds, so the
// no-ETS case idle-waits for up to the whole run while the on-demand case
// stays at sub-millisecond latency.
func RuntimeFigure() Figure {
	none := RunRuntime(500, 1, 2*time.Second, false, 99)
	demand := RunRuntime(500, 1, 2*time.Second, true, 99)
	return Figure{
		ID:     "rt",
		Title:  "Concurrent runtime (real time, 500/1 t/s for 2s): demand-driven ETS",
		XLabel: "point",
		YLabel: "ms",
		X:      []float64{0},
		Series: []Series{
			{Name: "none mean(ms)", Y: []float64{none.MeanLatency.Millis()}},
			{Name: "none p99(ms)", Y: []float64{none.P99Latency.Millis()}},
			{Name: "demand mean(ms)", Y: []float64{demand.MeanLatency.Millis()}},
			{Name: "demand p99(ms)", Y: []float64{demand.P99Latency.Millis()}},
		},
		Notes: []string{
			"goroutine engine: backtracking becomes an upstream demand signal; wall-clock noise applies",
			// The sparse source feeds the union directly, so the union
			// mostly reads its bound instead of receiving an ETS.
			fmt.Sprintf("on-demand run: %d ETS generated, %d bounds read", demand.ETS, demand.BoundReads),
		},
	}
}
