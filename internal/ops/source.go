package ops

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/ckpt"
	"repro/internal/tsm"
	"repro/internal/tuple"
)

// Source is the operator form of a source node. External wrappers (or the
// simulation driver) deposit raw tuples into the source's inbox; an
// execution step moves one tuple from the inbox to the output arcs,
// timestamping it according to the stream's timestamp kind:
//
//   - Internal: the tuple is stamped with the current virtual clock;
//   - External: the tuple keeps its application timestamp (the source
//     verifies order and feeds its skew estimator);
//   - Latent: the tuple keeps no timestamp (tuple.MinTime).
//
// The source also owns the stream's ETS estimator (§5): when the execution
// engine backtracks to a source whose inbox is empty, it asks the source for
// an on-demand ETS; periodic-heartbeat drivers call InjectETS on a timer.
type Source struct {
	base
	tsKind tuple.TSKind
	inbox  *buffer.Queue
	est    *tsm.ETSEstimator
	seq    uint64

	// stats
	emitted    uint64
	etsEmitted uint64
}

// NewSource returns a source for the given schema. For external streams,
// delta is the maximum skew bound used by the ETS estimator; it is ignored
// for other kinds.
func NewSource(name string, schema *tuple.Schema, delta tuple.Time) *Source {
	kind := tuple.Internal
	if schema != nil {
		kind = schema.TS
	}
	s := &Source{
		base:   base{name: name, inputs: 0, schema: schema},
		tsKind: kind,
		inbox:  buffer.New(name + ".inbox"),
	}
	switch kind {
	case tuple.Internal:
		s.est = tsm.NewInternalEstimator()
	case tuple.External:
		s.est = tsm.NewExternalEstimator(delta)
	}
	return s
}

// TSKind reports the stream's timestamp kind.
func (s *Source) TSKind() tuple.TSKind { return s.tsKind }

// Delta reports the stream's current skew bound δ (0 for non-external
// streams, which have no estimator or no skew notion).
func (s *Source) Delta() tuple.Time {
	if s.est == nil || s.tsKind != tuple.External {
		return 0
	}
	return s.est.Delta()
}

// RaiseDelta widens the external skew bound δ to d if larger — the hook the
// networked ingest layer uses to feed a per-connection skew measurement
// into on-demand ETS generation. Widening only (an ETS must stay a valid
// lower bound); no-op for non-external streams. Safe for concurrent use.
func (s *Source) RaiseDelta(d tuple.Time) {
	if s.est != nil && s.tsKind == tuple.External {
		s.est.RaiseDelta(d)
	}
}

// Inbox returns the queue external wrappers deposit tuples into.
func (s *Source) Inbox() *buffer.Queue { return s.inbox }

// Offer deposits an already-stamped tuple into the inbox (wrapper side).
// Most callers should use Ingest, which applies the stream's timestamping
// rule first.
func (s *Source) Offer(t *tuple.Tuple) { s.inbox.Push(t) }

// Ingest stamps a raw tuple according to the stream's timestamp kind as of
// clock now — the moment it enters the DSMS (§5) — and deposits it into the
// inbox. Timestamping happens here rather than when the source operator
// runs, so queueing delay inside the system is visible to latency metrics.
// Ingest takes ownership of raw and stamps it in place; callers must not
// touch the tuple afterwards.
func (s *Source) Ingest(raw *tuple.Tuple, now tuple.Time) {
	switch s.tsKind {
	case tuple.Internal:
		raw.Ts = now
	case tuple.Latent:
		raw.Ts = tuple.MinTime
	case tuple.External:
		// keep the application timestamp
	}
	raw.Arrived = now
	s.inbox.Push(raw)
}

// Emitted reports the number of data tuples the source has emitted.
func (s *Source) Emitted() uint64 { return s.emitted }

// Seq reports the sequence number of the last data tuple emitted — after a
// checkpoint restore, the replay watermark: clients must resend everything
// above it and nothing at or below it. Single-owner like the rest of the
// source; read it only while the engine is stopped or from the source's own
// goroutine.
func (s *Source) Seq() uint64 { return s.seq }

// ETSEmitted reports the number of punctuation tuples the source has
// emitted (periodic and on-demand combined).
func (s *Source) ETSEmitted() uint64 { return s.etsEmitted }

// More reports whether the inbox holds a tuple.
func (s *Source) More(*Ctx) bool { return !s.inbox.Empty() }

// BlockingInput always returns -1: a source has no upstream.
func (s *Source) BlockingInput(*Ctx) int { return -1 }

// Exec moves one tuple from the inbox (already stamped by Ingest) to the
// output and feeds the stream's ETS estimator.
func (s *Source) Exec(ctx *Ctx) bool {
	out := s.inbox.Pop()
	if out == nil {
		return false
	}
	if out.IsPunct() {
		s.etsEmitted++
		if out.Ckpt != 0 {
			// Checkpoint barrier (injected at MinTime): rewrite its
			// timestamp to the estimator's standing bound — the strongest
			// promise downstream could already rely on — so the barrier
			// flows as an honest punctuation, and snapshot at the exact
			// emission cut (s.seq is the replay watermark).
			out.Ts = tuple.MinTime
			if s.est != nil {
				out.Ts = s.est.Bound()
			}
			ctx.barrier(out.Ckpt, out.Ts)
		}
		if s.est != nil && !out.IsEOS() && out.Ts != tuple.MinTime {
			s.est.Emit(out.Ts)
		}
		ctx.Emit(out)
		return true
	}
	s.seq++
	out.Seq = s.seq
	if s.est != nil {
		s.est.ObserveTuple(out.Ts, out.Arrived)
		// A data tuple is itself a watermark carrier: future ETS must
		// exceed it to be useful.
		s.est.Emit(out.Ts)
	}
	s.emitted++
	ctx.Emit(out)
	return true
}

// OnDemandETS generates an Enabling Time-Stamp for the current clock, as the
// paper's backtrack-to-source rule requires (§4, §5). It returns false when
// the stream kind admits no ETS (latent), no bound exists yet (external
// before the first tuple), or the bound has not advanced since the last ETS
// — re-issuing it could not unblock anything and would make a quiescent
// graph spin.
func (s *Source) OnDemandETS(now tuple.Time) (*tuple.Tuple, bool) {
	if s.est == nil {
		return nil, false
	}
	ets, ok := s.est.ETS(now)
	if !ok {
		return nil, false
	}
	s.est.Emit(ets)
	return tuple.GetPunct(ets), true
}

// CanBound reports whether the source could currently promise any ETS —
// false for latent streams and for external streams before their first
// tuple. The concurrent runtime's source-liveness watchdog checks it before
// forcing an ETS into a silent source, so a source with nothing to promise
// is not signalled uselessly.
func (s *Source) CanBound() bool { return s.est != nil && s.est.CanBound() }

// InjectETS pushes a heartbeat punctuation into the inbox; the periodic
// (Gigascope-style) driver calls this at fixed intervals, and the concurrent
// runtime's source-liveness watchdog reuses it (on the source's own
// goroutine) to force a skew-bounded ETS out of a source that has gone
// silent. Internal streams stamp the heartbeat with the injection clock;
// external streams use the estimator's current bound if one exists. Unlike
// on-demand generation, periodic injection happens regardless of whether
// anything downstream is idle-waiting — that indiscriminateness is what the
// paper improves on.
func (s *Source) InjectETS(now tuple.Time) bool {
	switch s.tsKind {
	case tuple.Latent:
		return false
	case tuple.Internal:
		s.inbox.Push(tuple.NewPunct(now))
		return true
	default: // external
		if s.est == nil {
			return false
		}
		ets, ok := s.est.ETS(now)
		if !ok {
			return false
		}
		s.inbox.Push(tuple.NewPunct(ets))
		return true
	}
}

func (s *Source) String() string {
	return fmt.Sprintf("source %s (%v, inbox=%d)", s.name, s.tsKind, s.inbox.Len())
}

// Sink is the operator form of a sink node: it consumes every input tuple,
// eliminates punctuation (paper §3: "sink nodes should also eliminate
// punctuation tuples since they are only needed internally"), and hands data
// tuples to an optional callback — the output wrapper.
type Sink struct {
	base
	onTuple func(t *tuple.Tuple, now tuple.Time)

	received uint64
	punct    uint64

	// Optional application-state hooks: a consumer that accumulates state
	// from delivered tuples (a test harness checksum, an output offset) can
	// ride the sink's checkpoint segment with it, keeping its state aligned
	// with the same cut as the operators'.
	saveHook    func(*ckpt.Encoder)
	restoreHook func(*ckpt.Decoder) error
}

// NewSink returns a sink; onTuple may be nil.
func NewSink(name string, onTuple func(t *tuple.Tuple, now tuple.Time)) *Sink {
	return &Sink{base: base{name: name, inputs: 1}, onTuple: onTuple}
}

// StateHooks attaches application save/restore callbacks to the sink's
// checkpoint segment. Both must be set together (a snapshot written with
// hooks does not restore into a sink without them, and vice versa); call
// before the engine starts.
func (s *Sink) StateHooks(save func(*ckpt.Encoder), restore func(*ckpt.Decoder) error) {
	s.saveHook = save
	s.restoreHook = restore
}

// Received reports the number of data tuples delivered.
func (s *Sink) Received() uint64 { return s.received }

// PunctEliminated reports the number of punctuation tuples dropped.
func (s *Sink) PunctEliminated() uint64 { return s.punct }

// More reports whether the input holds a tuple.
func (s *Sink) More(ctx *Ctx) bool { return !ctx.Ins[0].Empty() }

// BlockingInput returns 0 when the input is empty.
func (s *Sink) BlockingInput(ctx *Ctx) int {
	if ctx.Ins[0].Empty() {
		return 0
	}
	return -1
}

// Exec consumes one tuple. Sinks never yield (they have no output arcs).
func (s *Sink) Exec(ctx *Ctx) bool {
	t := ctx.Ins[0].Pop()
	if t == nil {
		return false
	}
	if t.IsPunct() {
		s.punct++
		if t.Ckpt != 0 {
			ctx.barrier(t.Ckpt, t.Ts)
		}
		return false
	}
	s.received++
	if s.onTuple != nil {
		s.onTuple(t, ctx.Now())
	}
	return false
}
