// Package ops implements the query operators of the DSMS: sources, sinks,
// stateless transforms (selection, projection, map), the Idle-Waiting-Prone
// (IWP) operators — union and window join — and windowed aggregates.
//
// The IWP operators come in three modes mirroring the paper:
//
//   - Basic: the Figure-1 rules. An operator runs only when every input
//     buffer is non-empty; simultaneous tuples and drained inputs cause
//     idle-waiting.
//   - TSM: the Figure-6 rules. Time-Stamp Memory registers and the relaxed
//     `more` condition (Figure 5) let the operator run whenever some input
//     holds a tuple at the minimal register timestamp, and punctuation
//     tuples (ETS carriers) both unblock the operator and propagate
//     downstream.
//   - Latent: for latent-timestamp streams (§5) tuples pass through in
//     arrival order with no timestamp checks — the idle-waiting-free lower
//     bound the paper measures scenario D against.
//
// An IWP operator is one shared core plus its production rule. The core
// (iwp.go) holds the mode, the TSM registers, the output watermark and the
// checkpoint cut, and runs the `more` condition, the blocking input, the
// Basic and TSM consumption step and punctuation propagation. Union and
// WindowJoin embed it and keep only what a popped data tuple produces (the
// union emits it, the join probes and inserts) and their latent-mode step;
// the join also expires its opposite window on a consumed punctuation. An
// engine that reads an input's bound from its producer instead of receiving
// it as punctuation raises the register through the core (RaiseBound), which
// runs the join's hook and the punctuation rule as a consumed punctuation
// does.
package ops

import (
	"repro/internal/buffer"
	"repro/internal/ckpt"
	"repro/internal/tuple"
)

// Ctx carries the per-node execution environment an operator sees during one
// execution step: its input buffers, an emit function appending to the
// node's output arcs, and the engine's virtual clock.
type Ctx struct {
	// Ins are the operator's input buffers, one per input port.
	Ins []*buffer.Queue
	// Emit appends a tuple to every output arc of the node.
	Emit func(*tuple.Tuple)
	// EmitTo appends a tuple to out arc i only (arcs are indexed in the
	// order their consumers were attached). Routing operators — the hash
	// splitter of a partitioned subgraph — use it to send a tuple to one
	// shard instead of broadcasting; both engines provide it.
	EmitTo func(i int, t *tuple.Tuple)
	// Now returns the current virtual time. The concurrent runtime reads its
	// clock at most once per wake of the node and once per BatchSize
	// execution steps and returns that reading in between, so consecutive
	// calls may return the same value, one that trails the engine clock by
	// at most a batch of steps. It is never ahead of the engine clock, and
	// it is monotone when that clock is.
	Now func() tuple.Time
	// OnBarrier, when non-nil, is invoked by the operator the moment a
	// checkpoint barrier (a punctuation with Ckpt != 0) has fully applied
	// to it — at a source, where its stream reaches the cut; at a
	// multi-input operator, when the last input's barrier pops — and
	// before any post-barrier tuple is processed. The engine snapshots the
	// operator's state inside the callback (on the node's own goroutine, so
	// no locking is needed); bound is the cut's timestamp.
	OnBarrier func(id uint64, bound tuple.Time)
}

// barrier reports a fully applied checkpoint barrier to the engine.
func (c *Ctx) barrier(id uint64, bound tuple.Time) {
	if c.OnBarrier != nil {
		c.OnBarrier(id, bound)
	}
}

// Stateful is implemented by operators whose state survives a crash through
// punctuation-aligned checkpoints. SaveState encodes the operator's complete
// state; it is called on the operator's own goroutine at a barrier, so it
// may read everything freely but must not block on I/O (the payload is
// persisted elsewhere). RestoreState decodes a payload produced by SaveState
// into a freshly constructed operator of the identical shape (same
// constructor arguments); it runs before the engine starts. Implementations
// must consume their payload exactly — the engine verifies with
// Decoder.Done.
type Stateful interface {
	SaveState(enc *ckpt.Encoder)
	RestoreState(dec *ckpt.Decoder) error
}

// Operator is one node's behaviour in the query graph. Implementations are
// stateful (windows, TSM registers, aggregates) and single-owner: the engine
// never executes the same Operator concurrently.
//
// The engine drives operators with the two-step cycle of Figure 3: Exec runs
// one execution step; More (the paper's `more` state variable) reports
// whether another step could make progress right now. Whether the step
// produced output (the `yield` variable) is Exec's return value.
type Operator interface {
	// Name identifies the operator in diagnostics and DOT output.
	Name() string
	// NumInputs reports the operator's input arity.
	NumInputs() int
	// OutSchema describes the tuples the operator emits, or nil when the
	// operator was assembled without schema information (low-level use).
	OutSchema() *tuple.Schema
	// More reports whether an execution step can currently make progress.
	More(ctx *Ctx) bool
	// Exec performs one execution step and reports whether it produced
	// output (yield). Exec must only be called when More is true.
	Exec(ctx *Ctx) bool
	// BlockingInput identifies the input port responsible for More being
	// false — the port the DFS Backtrack rule follows upstream — or -1
	// when the operator is not blocked on a specific input.
	BlockingInput(ctx *Ctx) int
}

// base provides the trivial parts of Operator.
type base struct {
	name   string
	inputs int
	schema *tuple.Schema
}

func (b *base) Name() string             { return b.name }
func (b *base) NumInputs() int           { return b.inputs }
func (b *base) OutSchema() *tuple.Schema { return b.schema }

// IWPMode selects the execution rules of an IWP operator.
type IWPMode uint8

const (
	// Basic uses the Figure-1 rules: run only when every input is
	// non-empty (idle-waiting prone, no punctuation awareness).
	Basic IWPMode = iota
	// TSM uses the Figure-6 rules with Time-Stamp Memory registers, the
	// relaxed more condition and punctuation propagation.
	TSM
	// LatentMode passes tuples through in arrival order without timestamp
	// checks (latent-timestamp streams never idle-wait).
	LatentMode
)

func (m IWPMode) String() string {
	switch m {
	case Basic:
		return "basic"
	case TSM:
		return "tsm"
	case LatentMode:
		return "latent"
	default:
		return "IWPMode(?)"
	}
}

// allNonEmpty implements the Figure-1 `more` condition.
func allNonEmpty(ins []*buffer.Queue) bool {
	for _, q := range ins {
		if q.Empty() {
			return false
		}
	}
	return true
}

// firstEmpty returns the index of the first empty input, or -1.
func firstEmpty(ins []*buffer.Queue) int {
	for i, q := range ins {
		if q.Empty() {
			return i
		}
	}
	return -1
}

// anyNonEmpty returns the index of the first non-empty input, or -1.
func anyNonEmpty(ins []*buffer.Queue) int {
	for i, q := range ins {
		if !q.Empty() {
			return i
		}
	}
	return -1
}
