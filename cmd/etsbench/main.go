// Command etsbench regenerates the paper's tables and figures (and this
// repository's ablations) on the simulation substrate.
//
// Usage:
//
//	etsbench -list             list available figure ids
//	etsbench -fig fig7a        regenerate one figure
//	etsbench -fig all          regenerate everything (takes a few minutes)
//	etsbench -scenarios        quick A/B/C/D summary at default settings
//	etsbench -scenarios -hb 100  ... with scenario B's heartbeat rate set
//	etsbench -fig fig7b -csv   comma-separated values instead of a text table
//
// Performance of the live runtime is measured by bench/ (see bench/README.md),
// not here.
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
