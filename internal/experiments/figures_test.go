package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestFastFigures executes the quick figure generators end to end (the full
// sweeps run via cmd/etsbench; the slowest ones are exercised there and by
// the bench targets). Each must produce a rectangular table with all its
// series populated.
func TestFastFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation in -short mode")
	}
	for _, id := range []string{"fig7b", "idle", "join", "ab-cost", "ab-dedup", "ab-skew", "ab-sched"} {
		id := id
		t.Run(id, func(t *testing.T) {
			gen := ByID(id)
			if gen == nil {
				t.Fatalf("no generator for %q", id)
			}
			f := gen()
			if f.ID != id {
				t.Errorf("figure id = %q", f.ID)
			}
			if len(f.X) == 0 || len(f.Series) == 0 {
				t.Fatalf("empty figure: %+v", f)
			}
			for _, s := range f.Series {
				if len(s.Y) != len(f.X) {
					t.Errorf("series %q has %d points for %d X values", s.Name, len(s.Y), len(f.X))
				}
			}
			out := f.Render()
			if !strings.Contains(out, f.Title) {
				t.Error("render lacks title")
			}
			csv := f.CSV()
			lines := strings.Split(strings.TrimSpace(csv), "\n")
			if len(lines) != len(f.X)+1 {
				t.Errorf("CSV rows = %d, want %d", len(lines), len(f.X)+1)
			}
		})
	}
}

// TestFigureCSVEscaping covers the CSV escaper.
func TestFigureCSVEscaping(t *testing.T) {
	f := Figure{
		XLabel: "x,label",
		X:      []float64{1},
		Series: []Series{{Name: `quo"ted`, Y: []float64{2}}},
	}
	csv := f.CSV()
	if !strings.Contains(csv, `"x,label"`) || !strings.Contains(csv, `"quo""ted"`) {
		t.Errorf("escaping wrong: %q", csv)
	}
}

// TestRunRuntimeSmoke exercises the real-time runtime experiment briefly;
// absolute timings are wall-clock noisy, so only liveness is asserted.
func TestRunRuntimeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time experiment in -short mode")
	}
	r := RunRuntime(500, 5, 300*time.Millisecond, true, 1)
	if r.Outputs == 0 {
		t.Fatal("runtime experiment produced nothing")
	}
	if r.ETS+r.BoundReads == 0 {
		t.Error("neither a demand-driven ETS nor a bound read under a 100:1 skew")
	}
}

// A run lasts its whole duration: a stream whose next tuple falls past the
// deadline stays open until then instead of closing early, which would hand
// the union an EOS and unblock it. Seed 2's slow stream draws its first gap
// at 1.9 s, past the 200 ms run.
func TestRunRuntimeLastsItsDuration(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time experiment in -short mode")
	}
	const dur = 200 * time.Millisecond
	start := time.Now()
	RunRuntime(500, 1, dur, true, 2)
	if took := time.Since(start); took < dur {
		t.Fatalf("RunRuntime over %v returned after %v", dur, took)
	}
}
