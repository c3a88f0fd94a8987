// Command etsbench regenerates the paper's tables and figures (and this
// repository's ablations) on the simulation substrate.
//
// Usage:
//
//	etsbench -list             list available figure ids
//	etsbench -fig fig7a        regenerate one figure
//	etsbench -fig all          regenerate everything (takes a few minutes)
//	etsbench -scenarios        quick A/B/C/D summary at default settings
//	etsbench -runtime          benchmark the concurrent engine's batched
//	                           data plane vs the per-tuple baseline and
//	                           write BENCH_runtime.json
//	etsbench -net              benchmark loopback wire-protocol ingest vs
//	                           in-process feeding, run the kill-the-client
//	                           watchdog check, and write BENCH_net.json
//	etsbench -shards           sweep the partition rewrite over 1/2/4/8
//	                           shards on the union+join workload and
//	                           write BENCH_shard.json
//	etsbench -dist             benchmark a plan cut across a coordinator
//	                           plus two loopback workers against the same
//	                           plan in-process and write BENCH_dist.json
//	etsbench -chaos            soak the concurrent engine under seeded
//	                           fault injection (panics, drops, a source
//	                           stall) and verify the fault-tolerance
//	                           invariants; non-zero exit on violation
//	etsbench -obs              measure punctuation-tracing overhead (span
//	                           collector on vs off on the batched union
//	                           workload) and write BENCH_obs.json
//	etsbench -adaptive         benchmark the adaptive controller against
//	                           static configurations on the drifting-skew
//	                           union+join workload and the probe-reorder
//	                           multiway join; write BENCH_adaptive.json
//	etsbench -adaptive-smoke   short adaptive run asserting at least one
//	                           retune applied at a punctuation boundary
//	                           with all invariants held (CI gate)
//	etsbench -ckpt             run the kill-restore-verify crash drill and
//	                           measure checkpointing's steady-state overhead
//	                           against a budget; write BENCH_ckpt.json
//	etsbench -ckpt-verify      crash drill only: checkpointed run killed
//	                           without drain, restored from the latest
//	                           snapshot, watermark replay, exact-output
//	                           comparison (CI gate)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure id to regenerate (or 'all')")
	list := flag.Bool("list", false, "list figure ids")
	scen := flag.Bool("scenarios", false, "print the A/B/C/D scenario summary")
	hbRate := flag.Float64("hb", 10, "heartbeat rate for scenario B in the summary")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of text tables")
	rtBench := flag.Bool("runtime", false, "benchmark the concurrent engine's batched data plane")
	rtTuples := flag.Int("runtime-tuples", 2_000_000, "tuples per configuration for -runtime")
	rtOut := flag.String("runtime-out", "BENCH_runtime.json", "output file for -runtime results")
	netBench := flag.Bool("net", false, "benchmark loopback wire-protocol ingest vs in-process and run the kill-the-client check")
	netTuples := flag.Int("net-tuples", 300_000, "tuples per configuration for -net")
	netOut := flag.String("net-out", "BENCH_net.json", "output file for -net results")
	distBench := flag.Bool("dist", false, "benchmark the distributed cut (coordinator + 2 loopback workers) vs in-process")
	distTuples := flag.Int("dist-tuples", 100_000, "join pairs per configuration for -dist")
	distOut := flag.String("dist-out", "BENCH_dist.json", "output file for -dist results")
	shBench := flag.Bool("shards", false, "benchmark the partition rewrite (1/2/4/8 shards)")
	shTuples := flag.Int("shards-tuples", 150_000, "tuples per configuration for -shards")
	shOut := flag.String("shards-out", "BENCH_shard.json", "output file for -shards results")
	chaos := flag.Bool("chaos", false, "soak the concurrent engine under fault injection and check invariants")
	chaosSpec := flag.String("chaos-spec", "seed=1,panic=u+r+k:0.002,drop=0.01,stall=s2:600ms:400ms",
		"fault spec for -chaos (see internal/fault.ParseSpec)")
	chaosSeed := flag.Int64("chaos-seed", 0, "override the fault spec's PRNG seed (0 keeps the spec's)")
	chaosDur := flag.Duration("chaos-duration", 2*time.Second, "how long -chaos feeds the workload")
	chaosOut := flag.String("chaos-out", "", "optional JSON report file for -chaos")
	adBench := flag.Bool("adaptive", false, "benchmark the adaptive controller vs static configurations on the drifting-skew workload")
	adTuples := flag.Int("adaptive-tuples", 240_000, "tuples per configuration for -adaptive")
	adOut := flag.String("adaptive-out", "BENCH_adaptive.json", "output file for -adaptive results")
	obsBench := flag.Bool("obs", false, "measure punctuation-tracing overhead (span collector on vs off)")
	obsTuples := flag.Int("obs-tuples", 2_000_000, "tuples per configuration for -obs")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "output file for -obs results")
	adSmoke := flag.Bool("adaptive-smoke", false, "short adaptive run asserting at least one retune applied with invariants held")
	adSmokeTuples := flag.Int("adaptive-smoke-tuples", 60_000, "tuples for -adaptive-smoke")
	chaosAdaptive := flag.Bool("chaos-adaptive", false, "run -chaos with the adaptive controller attached (invariants unchanged)")
	ckptBench := flag.Bool("ckpt", false, "run the crash drill plus the checkpoint-overhead benchmark against the budget")
	ckptVerify := flag.Bool("ckpt-verify", false, "run only the kill-restore-verify crash drill (CI gate)")
	ckptTuples := flag.Int("ckpt-tuples", 1_000_000, "tuples per source for -ckpt (the drill uses a tenth)")
	ckptOut := flag.String("ckpt-out", "BENCH_ckpt.json", "output file for -ckpt results")
	ckptBudget := flag.Float64("ckpt-budget", 5, "max allowed checkpoint overhead for -ckpt, percent")
	ckptSpec := flag.String("ckpt-spec", "seed=1,crash=80ms", "fault spec scheduling the drill's crash (see internal/fault.ParseSpec)")
	flag.Parse()

	render := func(f experiments.Figure) string {
		if *csv {
			return f.CSV()
		}
		return f.Render()
	}
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *rtBench:
		runRuntimeBench(*rtTuples, *rtOut)
	case *netBench:
		runNetBench(*netTuples, *netOut)
	case *distBench:
		runDistBench(*distTuples, *distOut)
	case *shBench:
		runShardBench(*shTuples, *shOut)
	case *chaos:
		runChaos(*chaosSpec, *chaosSeed, *chaosDur, *chaosOut, *chaosAdaptive)
	case *ckptBench:
		runCkptBench(*ckptTuples, *ckptOut, *ckptBudget, *ckptSpec)
	case *ckptVerify:
		runCkptVerify(*ckptSpec, *ckptTuples/10)
	case *obsBench:
		runObsBench(*obsTuples, *obsOut)
	case *adBench:
		runAdaptiveBench(*adTuples, *adOut)
	case *adSmoke:
		runAdaptiveSmoke(*adSmokeTuples)
	case *scen:
		runScenarios(*hbRate)
	case *fig == "all":
		for _, e := range experiments.Registry() {
			start := time.Now()
			f := e.Generate()
			fmt.Print(render(f))
			if !*csv {
				fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
			}
		}
	case *fig != "":
		gen := experiments.ByID(*fig)
		if gen == nil {
			fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *fig)
			os.Exit(2)
		}
		fmt.Print(render(gen()))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runScenarios(hb float64) {
	fmt.Println("scenario summary (union query, 50/0.05 t/s Poisson, 2000s virtual):")
	for _, s := range []experiments.Scenario{
		experiments.ScenarioA, experiments.ScenarioB,
		experiments.ScenarioC, experiments.ScenarioD,
	} {
		cfg := experiments.Default(s)
		if s == experiments.ScenarioB {
			cfg.HeartbeatRate = hb
		}
		fmt.Println(experiments.Run(cfg))
	}
}
