// Package fault provides deterministic chaos injection for the concurrent
// runtime and its drivers. An Injector is built from a Config (seeded PRNG,
// per-fault rates) and threaded through runtime.Options; the engine probes it
// at well-defined points — the top of each node's scheduling iteration
// (panic-at-node) and source ingest (tuple-drop) — while drivers consult it
// for source-stall windows and clock-skew perturbation of external
// timestamps. All decisions come from one seeded generator, so a soak run is
// reproducible: same seed, same fault schedule (exactly so under a single
// goroutine, statistically so under concurrency, where goroutine interleaving
// decides which probe draws which number).
//
// The package exists to make the fault-tolerance layer testable: supervised
// restarts, the source-liveness watchdog, and load shedding are only
// trustworthy if the failures they guard against can be produced on demand.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tuple"
)

// Config selects which faults an Injector produces and at what rate. The
// zero value injects nothing.
type Config struct {
	// Seed initializes the PRNG; runs with equal seeds draw identical
	// decision sequences.
	Seed int64

	// PanicProb is the probability that a MaybePanic probe at a matching
	// node panics. PanicEvery, when > 0, overrides it with a deterministic
	// schedule: every PanicEvery-th matching probe panics.
	PanicProb  float64
	PanicEvery int
	// PanicNodes restricts panic injection to the named nodes; empty
	// matches every node.
	PanicNodes []string

	// DropProb is the probability that a data tuple offered to a matching
	// source is silently lost before entering the stream.
	DropProb  float64
	DropNodes []string

	// StallSource names a source whose external feed goes silent for the
	// window [StallAfter, StallAfter+StallFor) of wall time since New (or
	// the last Arm). Drivers poll SourceStalled and withhold input.
	StallSource string
	StallAfter  time.Duration
	StallFor    time.Duration

	// SkewProb is the probability that SkewTs perturbs an external
	// timestamp, uniformly in ±SkewMax.
	SkewProb float64
	SkewMax  tuple.Time
}

// Panic is the value MaybePanic throws, so supervisors (and tests) can
// recognize an injected failure in recover().
type Panic struct{ Node string }

func (p Panic) Error() string { return fmt.Sprintf("fault: injected panic at node %q", p.Node) }

// Stats is a snapshot of the faults an Injector has produced.
type Stats struct {
	Probes  uint64 // MaybePanic calls at matching nodes
	Panics  uint64
	Drops   uint64
	Skews   uint64
	Stalled bool // whether the stall window is open right now
}

// Injector produces faults per its Config. All methods are safe for
// concurrent use and are no-ops on a nil receiver, so call sites need no
// guard beyond the pointer they already hold.
type Injector struct {
	cfg   Config
	start time.Time

	mu  sync.Mutex
	rng *rand.Rand

	probes atomic.Uint64
	panics atomic.Uint64
	drops  atomic.Uint64
	skews  atomic.Uint64
}

// New builds an injector; the stall clock starts now.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, start: time.Now(), rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Arm restarts the stall clock — call it when the workload actually begins,
// if construction happened earlier.
func (in *Injector) Arm() {
	if in == nil {
		return
	}
	in.start = time.Now()
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

func match(nodes []string, node string) bool {
	if len(nodes) == 0 {
		return true
	}
	for _, n := range nodes {
		if n == node {
			return true
		}
	}
	return false
}

// MaybePanic panics with a Panic value when the schedule says a matching
// node fails here. The runtime probes it at the top of each node scheduling
// iteration — a clean point where operator state is consistent, so restarts
// exercise the supervisor, not memory corruption.
func (in *Injector) MaybePanic(node string) {
	if in == nil || (in.cfg.PanicEvery <= 0 && in.cfg.PanicProb <= 0) {
		return
	}
	if !match(in.cfg.PanicNodes, node) {
		return
	}
	n := in.probes.Add(1)
	if in.cfg.PanicEvery > 0 {
		if n%uint64(in.cfg.PanicEvery) == 0 {
			in.panics.Add(1)
			panic(Panic{Node: node})
		}
		return
	}
	in.mu.Lock()
	hit := in.rng.Float64() < in.cfg.PanicProb
	in.mu.Unlock()
	if hit {
		in.panics.Add(1)
		panic(Panic{Node: node})
	}
}

// DropTuple reports whether a data tuple offered to the named source should
// be lost.
func (in *Injector) DropTuple(node string) bool {
	if in == nil || in.cfg.DropProb <= 0 || !match(in.cfg.DropNodes, node) {
		return false
	}
	in.mu.Lock()
	hit := in.rng.Float64() < in.cfg.DropProb
	in.mu.Unlock()
	if hit {
		in.drops.Add(1)
	}
	return hit
}

// SourceStalled reports whether the named source's stall window is open.
func (in *Injector) SourceStalled(name string) bool {
	if in == nil || in.cfg.StallFor <= 0 || in.cfg.StallSource != name {
		return false
	}
	el := time.Since(in.start)
	return el >= in.cfg.StallAfter && el < in.cfg.StallAfter+in.cfg.StallFor
}

// SkewTs perturbs an external timestamp by up to ±SkewMax with probability
// SkewProb, clamping at zero.
func (in *Injector) SkewTs(ts tuple.Time) tuple.Time {
	if in == nil || in.cfg.SkewProb <= 0 || in.cfg.SkewMax <= 0 {
		return ts
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= in.cfg.SkewProb {
		return ts
	}
	in.skews.Add(1)
	off := tuple.Time(in.rng.Int63n(int64(2*in.cfg.SkewMax)+1)) - in.cfg.SkewMax
	if ts += off; ts < 0 {
		ts = 0
	}
	return ts
}

// Stats snapshots the faults produced so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Probes:  in.probes.Load(),
		Panics:  in.panics.Load(),
		Drops:   in.drops.Load(),
		Skews:   in.skews.Load(),
		Stalled: in.SourceStalled(in.cfg.StallSource),
	}
}

// ParseSpec parses a comma-separated fault spec, the CLI surface of Config:
//
//	seed=N                     PRNG seed
//	panic=[n1+n2:]P            panic probability per probe (optional node list)
//	panic-every=[n1+n2:]N      deterministic panic every Nth probe
//	drop=[n1+n2:]P             per-tuple drop probability at sources
//	stall=NAME:AFTER:FOR       silence source NAME for FOR, starting at AFTER
//	skew=P:MAX                 perturb timestamps by ±MAX with probability P
//
// e.g. "seed=7,panic=u+k:0.001,drop=0.01,stall=s2:1s:500ms,skew=0.05:3ms".
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	split := func(v string) (nodes []string, rest string) {
		if i := strings.LastIndex(v, ":"); i >= 0 {
			return strings.Split(v[:i], "+"), v[i+1:]
		}
		return nil, v
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("fault: bad spec entry %q (want key=value)", kv)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("fault: seed: %w", err)
			}
			cfg.Seed = n
		case "panic":
			nodes, p := split(v)
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return cfg, fmt.Errorf("fault: panic: %w", err)
			}
			cfg.PanicNodes, cfg.PanicProb = nodes, f
		case "panic-every":
			nodes, p := split(v)
			n, err := strconv.Atoi(p)
			if err != nil {
				return cfg, fmt.Errorf("fault: panic-every: %w", err)
			}
			cfg.PanicNodes, cfg.PanicEvery = nodes, n
		case "drop":
			nodes, p := split(v)
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return cfg, fmt.Errorf("fault: drop: %w", err)
			}
			cfg.DropNodes, cfg.DropProb = nodes, f
		case "stall":
			parts := strings.Split(v, ":")
			if len(parts) != 3 {
				return cfg, fmt.Errorf("fault: stall: want NAME:AFTER:FOR, got %q", v)
			}
			after, err := time.ParseDuration(parts[1])
			if err != nil {
				return cfg, fmt.Errorf("fault: stall after: %w", err)
			}
			dur, err := time.ParseDuration(parts[2])
			if err != nil {
				return cfg, fmt.Errorf("fault: stall for: %w", err)
			}
			cfg.StallSource, cfg.StallAfter, cfg.StallFor = parts[0], after, dur
		case "skew":
			p, m, ok := strings.Cut(v, ":")
			if !ok {
				return cfg, fmt.Errorf("fault: skew: want P:MAX, got %q", v)
			}
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return cfg, fmt.Errorf("fault: skew prob: %w", err)
			}
			d, err := time.ParseDuration(m)
			if err != nil {
				return cfg, fmt.Errorf("fault: skew max: %w", err)
			}
			cfg.SkewProb, cfg.SkewMax = f, tuple.FromDuration(d)
		default:
			return cfg, fmt.Errorf("fault: unknown spec key %q", k)
		}
	}
	return cfg, nil
}
