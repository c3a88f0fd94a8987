// Package streammill is the public facade of this repository: a data stream
// management system (DSMS) in the style of Stream Mill, reproducing the
// timestamp-management architecture of
//
//	Bai, Thakkar, Wang, Zaniolo.
//	"Optimizing Timestamp Management in Data Stream Management Systems."
//	ICDE 2007.
//
// The library provides:
//
//   - a typed tuple/schema model with external, internal and latent
//     timestamps (paper §5);
//   - an operator library — selection, projection, map, n-way union,
//     symmetric window join, windowed aggregates — with punctuation
//     propagation and the paper's TSM registers and relaxed `more`
//     condition (§4.1);
//   - the depth-first query-graph execution model with Forward / Encore /
//     Backtrack next-operator selection (§3) and on-demand Enabling
//     Time-Stamp generation at source nodes (§4–5);
//   - a small continuous-query language (CREATE STREAM / SELECT ... UNION /
//     JOIN ... WINDOW / GROUP BY);
//   - a deterministic discrete-event simulator used by the experiment
//     harness (cmd/etsbench) to regenerate every figure in the paper; and
//   - a concurrent goroutine-per-operator runtime for real-time use, in
//     which ETS demand propagates upstream as explicit signals.
//
// # Quick start
//
//	e := streammill.NewEngine()
//	e.MustExecute(`CREATE STREAM fast (v int)`, nil)
//	e.MustExecute(`CREATE STREAM slow (v int)`, nil)
//	q := e.MustExecute(`SELECT * FROM fast UNION slow`, func(t *streammill.Tuple, now streammill.Time) {
//		fmt.Println(t)
//	})
//	_ = q
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and experiment index.
package streammill

import (
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tuple"
	"repro/internal/window"
)

// Core data-model types.
type (
	// Time is a point on the engine's virtual clock, in microseconds.
	Time = tuple.Time
	// Tuple is one stream element (data or punctuation).
	Tuple = tuple.Tuple
	// Value is one typed attribute value.
	Value = tuple.Value
	// Schema describes a stream's attributes and timestamp kind.
	Schema = tuple.Schema
	// Field is one schema attribute.
	Field = tuple.Field
	// TSKind is a timestamp kind (External, Internal, Latent).
	TSKind = tuple.TSKind
)

// Engine types.
type (
	// Engine is the DSMS facade: declare streams, submit CQL, run.
	Engine = core.Engine
	// Query is a handle on one registered continuous query.
	Query = core.Query
	// Source is a stream's entry point into the system.
	Source = ops.Source
	// Graph is a continuous-query operator graph.
	Graph = graph.Graph
	// ExecEngine is the single-threaded DFS execution engine.
	ExecEngine = exec.Engine
	// Scheduler apportions execution steps across scheduling units
	// (graph components) by weighted deficit round robin.
	Scheduler = exec.Scheduler
	// NodeStat is one operator's execution statistics.
	NodeStat = exec.NodeStat
	// Runtime is the concurrent goroutine-per-operator engine.
	Runtime = runtime.Engine
	// RuntimeOptions configures a Runtime.
	RuntimeOptions = runtime.Options
	// AdaptiveOptions configures the self-tuning controller AttachAdaptive
	// builds over a Runtime.
	AdaptiveOptions = adapt.Options
	// AdaptiveController closes the metrics loop over a running Runtime,
	// retuning batch sizes and shard tables at punctuation boundaries.
	AdaptiveController = adapt.Controller
	// Sim drives an ExecEngine over virtual time.
	Sim = sim.Sim
	// Stream feeds a Sim with generated arrivals.
	Stream = sim.Stream
	// WindowSpec describes a join/aggregate window extent.
	WindowSpec = window.Spec
)

// Timestamp kinds (paper §5).
const (
	// External timestamps are assigned by the producing application.
	External = tuple.External
	// Internal timestamps are assigned on entry using the system clock.
	Internal = tuple.Internal
	// Latent streams carry no timestamps; operators stamp on the fly.
	Latent = tuple.Latent
)

// ETS policies.
const (
	// NoETS never generates enabling timestamps (scenario A).
	NoETS = core.NoETS
	// OnDemandETS generates ETS for idle-waiting operators (scenario C).
	OnDemandETS = core.OnDemandETS
)

// Time units.
const (
	Microsecond = tuple.Microsecond
	Millisecond = tuple.Millisecond
	Second      = tuple.Second
	Minute      = tuple.Minute
)

// NewEngine returns an empty DSMS engine.
func NewEngine() *Engine { return core.NewEngine() }

// NewSchema builds a schema with internal timestamps; use Schema.WithTS to
// change the kind.
func NewSchema(name string, fields ...Field) *Schema { return tuple.NewSchema(name, fields...) }

// NewData returns a data tuple.
func NewData(ts Time, vals ...Value) *Tuple { return tuple.NewData(ts, vals...) }

// Int, Float, Str, Boolean and TimeValue construct attribute values.
func Int(v int64) Value      { return tuple.Int(v) }
func Float(v float64) Value  { return tuple.Float(v) }
func Str(v string) Value     { return tuple.String_(v) }
func Boolean(v bool) Value   { return tuple.Bool(v) }
func TimeValue(v Time) Value { return tuple.TimeVal(v) }

// NewRuntime builds a concurrent runtime over an engine's graph. Call after
// all queries are registered.
func NewRuntime(e *Engine, opts RuntimeOptions) (*Runtime, error) {
	return runtime.New(e.Graph(), opts)
}

// AttachAdaptive builds the self-tuning controller over rt from opts (nil
// means all defaults). Call Start after the runtime is started, Stop before
// tearing it down.
func AttachAdaptive(rt *Runtime, opts *AdaptiveOptions) *AdaptiveController {
	return adapt.New(rt, opts)
}

// NewSim builds a discrete-event simulation over a built exec engine.
func NewSim(ex *ExecEngine, horizon Time) *Sim { return sim.New(ex, horizon) }

// NewScheduler builds a weighted fair scheduler over an exec engine's
// scheduling units; weights maps component index → relative share (nil =
// uniform).
func NewScheduler(ex *ExecEngine, weights map[int]int) (*Scheduler, error) {
	return exec.NewScheduler(ex, weights)
}

// TimeWindow and RowWindow build window extents.
func TimeWindow(span Time) WindowSpec { return window.TimeWindow(span) }
func RowWindow(rows int) WindowSpec   { return window.RowWindow(rows) }
