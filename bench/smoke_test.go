package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at about 1/50 scale, untraced pass and traced
// pass, and checks that every metric BENCHMARK.json promises is reported and
// finite, that no operation failed, and that the output matches the
// reference. It keeps the benchmark from rotting between measured runs.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{
				w: w, seed: 5,
				windows: 2, window: 200 * time.Millisecond, warm: 50 * time.Millisecond, slot: 10 * time.Millisecond,
				setups: 2 * time.Millisecond, probe: 1 << 13,
			}
			rep, err := runWorkload(cfg, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			for _, d := range endToEndMetrics {
				if v, ok := rep.plain[d.name]; !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Errorf("end-to-end metric %s = %v (reported %v)", d.name, v, ok)
				}
			}
			for _, d := range perLayerMetrics {
				if m, ok := rep.Metrics[d.name]; !ok || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) || m.Unit != d.unit {
					t.Errorf("per-layer metric %s = %+v (reported %v)", d.name, m, ok)
				}
			}
			if len(rep.Metrics) != len(perLayerMetrics) {
				t.Errorf("%d per-layer metrics reported, want %d", len(rep.Metrics), len(perLayerMetrics))
			}
			if w.iwp == "union" && rep.Metrics["runtime.ets_per_ktuple_paced"].Value == 0 {
				t.Error("a sparse union generated no on-demand ETS")
			}
			if w.iwp == "" && rep.Metrics["runtime.ets_per_ktuple_paced"].Value != 0 {
				t.Error("a plan with no IWP operator generated ETS")
			}
		})
	}
}

// TestManifestMatchesTables holds BENCHMARK.json and the harness's metric
// and workload tables together.
func TestManifestMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Seconds   float64  `json:"run_seconds"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Seconds != defaultSeconds {
		t.Errorf("run_seconds %v, harness default %v", doc.Seconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, harness %s", i, doc.Workloads[i], w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the manifest, %d in the harness", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: manifest %+v, harness %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEndMetrics)
	check("per-layer", doc.PerLayer, perLayerMetrics)
}
