package fault

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/tuple"
)

func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	in.MaybePanic("n")
	if in.DropTuple("n") {
		t.Error("nil injector dropped a tuple")
	}
	if in.SourceStalled("n") {
		t.Error("nil injector stalled a source")
	}
	if got := in.SkewTs(5); got != 5 {
		t.Errorf("nil injector skewed: %v", got)
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Errorf("nil stats = %+v", s)
	}
}

func TestDeterministicDrops(t *testing.T) {
	decide := func(seed int64) []bool {
		in := New(Config{Seed: seed, DropProb: 0.5})
		out := make([]bool, 100)
		for i := range out {
			out[i] = in.DropTuple("s")
		}
		return out
	}
	a, b := decide(42), decide(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across equal seeds", i)
		}
	}
	c := decide(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds drew identical decision sequences")
	}
}

func TestPanicEveryIsDeterministic(t *testing.T) {
	in := New(Config{PanicEvery: 3, PanicNodes: []string{"u"}})
	panics := 0
	probe := func(node string) {
		defer func() {
			if r := recover(); r != nil {
				p, ok := r.(Panic)
				if !ok || p.Node != node {
					t.Fatalf("unexpected panic value %v", r)
				}
				panics++
			}
		}()
		in.MaybePanic(node)
	}
	for i := 0; i < 9; i++ {
		probe("u")
	}
	if panics != 3 {
		t.Errorf("panics = %d, want 3 (every 3rd probe)", panics)
	}
	probe("other") // non-matching node: never panics, never counts
	if got := in.Stats().Probes; got != 9 {
		t.Errorf("probes = %d, want 9 (matching only)", got)
	}
	if got := in.Stats().Panics; got != 3 {
		t.Errorf("stats panics = %d, want 3", got)
	}
}

func TestStallWindow(t *testing.T) {
	in := New(Config{StallSource: "s2", StallAfter: 0, StallFor: time.Hour})
	if !in.SourceStalled("s2") {
		t.Error("stall window should be open")
	}
	if in.SourceStalled("s1") {
		t.Error("wrong source stalled")
	}
	in = New(Config{StallSource: "s2", StallAfter: time.Hour, StallFor: time.Hour})
	if in.SourceStalled("s2") {
		t.Error("stall window not yet open")
	}
}

func TestSkewBounded(t *testing.T) {
	in := New(Config{Seed: 1, SkewProb: 1, SkewMax: 10})
	moved := false
	for i := 0; i < 200; i++ {
		ts := tuple.Time(1000)
		got := in.SkewTs(ts)
		if got < 990 || got > 1010 {
			t.Fatalf("skew out of bounds: %v", got)
		}
		if got != ts {
			moved = true
		}
	}
	if !moved {
		t.Error("skew with prob 1 never perturbed a timestamp")
	}
	if in.SkewTs(2) < 0 {
		t.Error("skew went negative")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7,panic=u+k:0.25,drop=0.01,stall=s2:1s:500ms,skew=0.05:3ms")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.PanicProb != 0.25 || len(cfg.PanicNodes) != 2 ||
		cfg.DropProb != 0.01 || cfg.DropNodes != nil ||
		cfg.StallSource != "s2" || cfg.StallAfter != time.Second || cfg.StallFor != 500*time.Millisecond ||
		cfg.SkewProb != 0.05 || cfg.SkewMax != 3*tuple.Millisecond {
		t.Errorf("parsed %+v", cfg)
	}
	if cfg, err = ParseSpec("panic-every=u:100"); err != nil || cfg.PanicEvery != 100 {
		t.Errorf("panic-every: %+v, %v", cfg, err)
	}
	if _, err = ParseSpec("bogus=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err = ParseSpec("stall=s2:1s"); err == nil {
		t.Error("short stall spec accepted")
	}
	if cfg, err = ParseSpec("  "); err != nil || !reflect.DeepEqual(cfg, Config{}) {
		t.Errorf("empty spec: %+v, %v", cfg, err)
	}
}
