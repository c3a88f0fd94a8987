package tsm

import (
	"sync/atomic"

	"repro/internal/tuple"
)

// ETSEstimator computes on-demand Enabling Time-Stamp values for a source
// node, per the rules of paper §5 ("On-Demand Generation of ETS at Source
// Nodes"):
//
//   - internal timestamps: the ETS is the current (virtual) system clock —
//     any tuple entering later will be stamped with a later clock value;
//   - external timestamps: the ETS is application-dependent; with a maximum
//     inter-arrival skew bound δ, if the last tuple arrived τ ago carrying
//     timestamp t, the source can promise t + τ − δ;
//   - latent timestamps: no ETS is ever needed (IWP operators pass latent
//     tuples through immediately).
//
// Estimators also enforce monotonicity: an ETS never moves backwards, and is
// never smaller than the last timestamp already emitted on the arc.
type ETSEstimator struct {
	kind tuple.TSKind

	// δ is the maximum skew between a tuple's external timestamp and the
	// arrival clock, relative to the previous tuple (external kind only).
	// It is atomic because a networked source's per-connection skew
	// estimator raises it from the session goroutine while the source's
	// own goroutine computes ETS values.
	delta atomic.Int64
	// seen records that a data tuple has been observed. It is atomic
	// because the runtime's source-liveness watchdog reads it (CanBound)
	// from its own goroutine. Every other estimator field stays
	// single-owner.
	seen atomic.Bool

	lastTs      tuple.Time // timestamp of the last data tuple emitted
	lastArrival tuple.Time // clock at which it was emitted

	lastETS tuple.Time
	hasETS  bool
}

// NewInternalEstimator returns an estimator for internally timestamped
// streams.
func NewInternalEstimator() *ETSEstimator {
	return &ETSEstimator{kind: tuple.Internal}
}

// NewExternalEstimator returns an estimator for externally timestamped
// streams with maximum skew δ between successive arrivals.
func NewExternalEstimator(delta tuple.Time) *ETSEstimator {
	e := &ETSEstimator{kind: tuple.External}
	e.delta.Store(int64(delta))
	return e
}

// Delta reports the current skew bound δ.
func (e *ETSEstimator) Delta() tuple.Time { return tuple.Time(e.delta.Load()) }

// RaiseDelta widens the skew bound to d if d exceeds the current bound.
// Only widening is allowed: δ is the safety margin that keeps an ETS a
// valid lower bound, so a measured skew larger than the configured bound
// must take effect, while a smaller measurement must not narrow the
// promise retroactively. Safe for concurrent use — the networked ingest
// path calls it from a session goroutine as its per-connection skew
// estimator learns the link's real jitter.
func (e *ETSEstimator) RaiseDelta(d tuple.Time) {
	for {
		cur := e.delta.Load()
		if int64(d) <= cur {
			return
		}
		if e.delta.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Kind reports the timestamp kind the estimator serves.
func (e *ETSEstimator) Kind() tuple.TSKind { return e.kind }

// ObserveTuple records that a data tuple with timestamp ts entered the
// system at clock now. External estimators need this history to bound
// future timestamps.
func (e *ETSEstimator) ObserveTuple(ts, now tuple.Time) {
	if !e.seen.Load() {
		e.lastTs = ts
		e.seen.Store(true)
	} else if ts > e.lastTs {
		e.lastTs = ts
	}
	e.lastArrival = now
}

// ETS returns the Enabling Time-Stamp the source can promise at clock now,
// and whether a useful (non-MinTime, monotonically advancing) value exists.
//
// For internal streams the value is now itself. For external streams it is
// t + τ − δ where t is the last external timestamp, τ = now − lastArrival;
// before any tuple has been seen no bound exists.
func (e *ETSEstimator) ETS(now tuple.Time) (tuple.Time, bool) {
	var ets tuple.Time
	switch e.kind {
	case tuple.Internal:
		ets = now
	case tuple.External:
		if !e.seen.Load() {
			return tuple.MinTime, false
		}
		elapsed := now - e.lastArrival
		ets = e.lastTs + elapsed - tuple.Time(e.delta.Load())
		if ets < e.lastTs {
			// The bound can not regress below the last emitted
			// timestamp: arcs are ordered.
			ets = e.lastTs
		}
	case tuple.Latent:
		return tuple.MinTime, false
	}
	if e.hasETS && ets <= e.lastETS {
		// Re-issuing the same (or an older) ETS would not unblock
		// anything the previous one did not already unblock.
		return e.lastETS, false
	}
	return ets, true
}

// CanBound reports whether the estimator is in a state where some future
// clock could yield a useful ETS: always for internal streams, only after
// the first observed tuple for external streams, never for latent. The
// source-liveness watchdog uses it to avoid signalling sources that could
// not answer anyway.
func (e *ETSEstimator) CanBound() bool {
	switch e.kind {
	case tuple.Internal:
		return true
	case tuple.External:
		return e.seen.Load()
	default:
		return false
	}
}

// Emit records that an ETS value was actually issued, so subsequent calls
// only report usefulness when the bound has advanced.
func (e *ETSEstimator) Emit(ets tuple.Time) {
	if !e.hasETS || ets > e.lastETS {
		e.lastETS = ets
		e.hasETS = true
	}
}

// State exports the estimator's single-owner fields for a checkpoint
// (lastTs, lastArrival, seen, lastETS, hasETS — δ is configuration and is
// re-learned, not checkpointed). Must be called from the source's goroutine.
func (e *ETSEstimator) State() (lastTs, lastArrival tuple.Time, seen bool, lastETS tuple.Time, hasETS bool) {
	return e.lastTs, e.lastArrival, e.seen.Load(), e.lastETS, e.hasETS
}

// SetState restores the fields exported by State.
func (e *ETSEstimator) SetState(lastTs, lastArrival tuple.Time, seen bool, lastETS tuple.Time, hasETS bool) {
	e.lastTs, e.lastArrival = lastTs, lastArrival
	e.seen.Store(seen)
	e.lastETS, e.hasETS = lastETS, hasETS
}
