// Command bench is the repository's benchmark: four workloads on the live
// concurrent runtime, each one run of two phases over one compiled plan, a
// paced open-loop phase for latency and a saturated phase under backpressure
// for capacity and cost per tuple. See README.md for the metric glossary.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench --repeat <k>
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupBudget is how much set-up time one run measures. One set-up takes
// 50-400 µs. A few hundred of them sample a few tens of ms of this box's
// state, and their median moved 40-66 µs between identical runs; the medians
// of the thousands that fit in this budget stayed within ±5 % on a quiet box.
// A budget in time and not in cycles keeps net_union, whose set-up is six
// times longer, from opening 8000 loopback connections per run.
const setupBudget = 250 * time.Millisecond

// defaultSeconds is the run length BENCHMARK.json asks for: ten windows of
// 1.4 s in each phase. With set-up, warm-up, the gauge's slots, drain and
// verification a run takes about 31 s, and the driver's 92 runs and two
// builds fit its 3420 s with a sixth to spare.
const defaultSeconds = 28

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`

	// plain is the untraced pass's end-to-end metrics, also when Metrics
	// holds the traced pass's per-layer ones.
	plain map[string]float64
}

func main() {
	// The box has two cores: one for the driver, one for the engine.
	runtime.GOMAXPROCS(2)
	var (
		name    = flag.String("workload", "", "workload to run: union_sparse, net_union, join_dense or pipeline_dense")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds, split evenly between the paced and the saturated phase")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes layers.json and spans.jsonl under")
		repeat  = flag.Int("repeat", 0, "run every workload in two interleaved sets of this many runs and compare them")
	)
	flag.Parse()
	if *repeat > 0 {
		os.Exit(repeatability(*repeat, *seconds))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := runWorkload(passConfig(w, *seed, *seconds, *trace != 0), *trace != 0, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one invocation and prints its table: the measured pass
// alone, or for a traced run an untraced pass and then a traced pass.
func runWorkload(cfg runConfig, traced bool, outDir string) (*report, error) {
	w, seed := cfg.w, cfg.seed
	plain, err := run(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricOut{}, plain: plain.e2e}
	invalid := plain.invalid
	defs, values := endToEndMetrics, plain.e2e
	if traced {
		cfg.tr = newTracer(w)
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		layers, flags, err := layerMetrics(cfg, plain, res)
		if err != nil {
			return nil, err
		}
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		if invalid == "" {
			invalid = res.invalid
		}
		defs, values = perLayerMetrics, layers
		if err := writeTrace(filepath.Join(outDir, w.name), cfg.tr, layers, flags); err != nil {
			return nil, err
		}
		for _, f := range flags {
			fmt.Printf("flag: %s\n", f)
		}
	}
	fmt.Printf("workload %s seed %d: %d tuples fed, %d failed, %d paced latency samples\n",
		w.name, seed, rep.Attempted, rep.Failed, plain.rec.samples(phasePaced))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		fmt.Printf("  %-42s %16.4f %s\n", d.name, v, d.unit)
		rep.Metrics[d.name] = metricOut{v, d.unit}
	}
	if !traced {
		// The timing metrics above are at the quiet box's speed (gauge.go).
		pw, slow := &plain.perWindow, &plain.slow
		fmt.Printf("as measured: set-up %.4g s, latency %.4g us, throughput %.4g 1/s, cpu %.4g ns on a box %.3f, %.3f and %.3f times slower than the quiet one (set-up, paced, saturated)\n",
			median(plain.setup.total)/1e9, median(present(pw.lat)), median(present(pw.tps)), median(present(pw.cpu)),
			slow.setup, median(present(slow.paced)), median(present(slow.sat)))
		fmt.Printf("per window: latency %.4g us beside slowdowns %.3f; throughput %.4g 1/s and cpu %.4g ns beside slowdowns %.3f\n",
			pw.lat, slow.paced, pw.tps, pw.cpu, slow.sat)
	}
	if invalid != "" {
		fmt.Printf("invalid run: %s\n", invalid)
	}
	rep.Correct = rep.Failed == 0 && invalid == ""
	return rep, nil
}

// writeTrace writes the traced pass's per-layer metrics and spans.
func writeTrace(dir string, tr *tracer, layers map[string]float64, flags []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Flags   []string           `json:"flags"`
		Metrics map[string]float64 `json:"metrics"`
	}{flags, layers}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	return tr.writeSpans(filepath.Join(dir, "spans.jsonl"))
}
