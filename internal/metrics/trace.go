package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// EventKind names the engine moments the trace facility records — the event
// taxonomy of DESIGN.md §8. Each kind corresponds to a timestamp-management
// transition the paper reasons about: idle-waiting onset and exit, on-demand
// ETS generation, upstream demand signalling, watermark (output bound)
// advance, and batch flushes on the concurrent data plane.
type EventKind uint8

const (
	// EvIdleEnter: an operator blocked while holding input data.
	EvIdleEnter EventKind = iota
	// EvIdleExit: the operator was reactivated; Value is the idle spell's
	// duration in µs.
	EvIdleExit
	// EvETSGen: a source generated an on-demand ETS; Value is its timestamp.
	EvETSGen
	// EvDemandSent: an idle-waiting node signalled demand upstream.
	EvDemandSent
	// EvWatermarkAdvance: a node's output bound advanced; Value is the new
	// watermark.
	EvWatermarkAdvance
	// EvBatchFlush: a pending output batch was sent; Value is its length.
	EvBatchFlush
	// EvNodePanic: a node goroutine panicked and was caught by its
	// supervisor; Value is the number of restarts already consumed.
	EvNodePanic
	// EvNodeRestart: the supervisor restarted a panicked node; Value is
	// the restart attempt number (1-based).
	EvNodeRestart
	// EvETSForced: the source-liveness watchdog force-injected an ETS into
	// a silent source.
	EvETSForced
	// EvSourceDead: a source silent past its dead threshold was declared
	// dead and its stream closed so downstream bounds keep advancing.
	EvSourceDead
	// EvSourceRevive: a tuple arrived at a source previously declared dead.
	EvSourceRevive
	// EvLateTuple: data arrived below the node's input watermark (an ETS
	// overshoot or a revived source); Value is how many tuples in the
	// delivery were late.
	EvLateTuple
	// EvShed: the node dropped buffered tuples to stay within its queue
	// bound; Value is how many were shed.
	EvShed
	// EvNetSessionOpen: the ingest server accepted a connection; Value is
	// the session id.
	EvNetSessionOpen
	// EvNetSessionClose: an ingest session ended; Value is the session id.
	EvNetSessionClose
	// EvNetBind: a session bound a stream; Value is the session id.
	EvNetBind
	// EvNetDemand: the server granted tuple credits to a client (the wire
	// form of upstream demand); Value is the credits granted.
	EvNetDemand
	// EvNetSkew: a session's skew estimator raised a source's δ; Value is
	// the new bound in µs.
	EvNetSkew
	// EvRetuneBatch: the adaptive controller decided a new batch size for a
	// node; Value is the new size.
	EvRetuneBatch
	// EvRetuneShards: the controller issued a splitter re-assignment;
	// Value is the punctuation barrier timestamp the swap is fenced on.
	EvRetuneShards
	// EvRetuneApplied: a node observed a pending reconfiguration at a
	// punctuation boundary and applied it; Value is the punctuation
	// timestamp at the apply point (the quiescence witness).
	EvRetuneApplied
	// EvCkptBarrier: a source emitted a checkpoint barrier; Value is the
	// barrier's punctuation timestamp (the source's standing bound).
	EvCkptBarrier
	// EvCkptNode: a node applied a checkpoint barrier and snapshotted;
	// Value is the encoded state size in bytes (0 for stateless nodes).
	EvCkptNode
	// EvCkptComplete: every node reported and the snapshot was assembled;
	// Value is the checkpoint ID.
	EvCkptComplete
	// EvCkptAbort: a checkpoint attempt was abandoned (timeout or engine
	// stop); Value is the checkpoint ID.
	EvCkptAbort
	// EvCkptRestore: operator state was restored from a checkpoint before
	// start; Value is the checkpoint ID.
	EvCkptRestore
	// EvBoundRead: a blocked operator read an idle internal source's bound
	// in place of an ETS; When is the bound, Value the operator's input.
	EvBoundRead

	numEventKinds
)

func (k EventKind) String() string {
	switch k {
	case EvIdleEnter:
		return "IdleEnter"
	case EvIdleExit:
		return "IdleExit"
	case EvETSGen:
		return "ETSGen"
	case EvDemandSent:
		return "DemandSent"
	case EvWatermarkAdvance:
		return "WatermarkAdvance"
	case EvBatchFlush:
		return "BatchFlush"
	case EvNodePanic:
		return "NodePanic"
	case EvNodeRestart:
		return "NodeRestart"
	case EvETSForced:
		return "ETSForced"
	case EvSourceDead:
		return "SourceDead"
	case EvSourceRevive:
		return "SourceRevive"
	case EvLateTuple:
		return "LateTuple"
	case EvShed:
		return "Shed"
	case EvNetSessionOpen:
		return "NetSessionOpen"
	case EvNetSessionClose:
		return "NetSessionClose"
	case EvNetBind:
		return "NetBind"
	case EvNetDemand:
		return "NetDemand"
	case EvNetSkew:
		return "NetSkew"
	case EvRetuneBatch:
		return "RetuneBatch"
	case EvRetuneShards:
		return "RetuneShards"
	case EvRetuneApplied:
		return "RetuneApplied"
	case EvCkptBarrier:
		return "CkptBarrier"
	case EvCkptNode:
		return "CkptNode"
	case EvCkptComplete:
		return "CkptComplete"
	case EvCkptAbort:
		return "CkptAbort"
	case EvCkptRestore:
		return "CkptRestore"
	case EvBoundRead:
		return "BoundRead"
	default:
		return fmt.Sprintf("EventKind(%d)", k)
	}
}

// Event is one recorded engine moment.
type Event struct {
	// Seq is the global emission sequence number (0-based).
	Seq uint64 `json:"seq"`
	// Kind classifies the event.
	Kind EventKind `json:"-"`
	// Node names the operator the event happened at.
	Node string `json:"node"`
	// When is the engine clock at emission, in µs.
	When tuple.Time `json:"when_us"`
	// Value is kind-specific: an ETS/watermark timestamp, an idle duration,
	// a batch length.
	Value int64 `json:"value"`
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s %s when=%d value=%d", e.Seq, e.Kind, e.Node, e.When, e.Value)
}

// MarshalJSON renders the kind by name so /trace output is self-describing.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq   uint64 `json:"seq"`
		Kind  string `json:"kind"`
		Node  string `json:"node"`
		When  int64  `json:"when_us"`
		Value int64  `json:"value"`
	}{e.Seq, e.Kind.String(), e.Node, int64(e.When), e.Value})
}

// Tracer records typed events into a bounded ring. Engines hold a *Tracer
// that is nil when tracing is off, so the disabled cost is one pointer
// check at each emission site. When enabled, Emit takes a short mutex to
// write one ring slot; per-kind totals are atomic so pairing invariants
// (every IdleEnter has an IdleExit) survive ring eviction.
//
// A pluggable sink, when set, receives every event synchronously after the
// ring write — e.g. a stderr streamer in streamd. The sink must be fast or
// it becomes the engine's bottleneck while tracing.
type Tracer struct {
	mu   sync.Mutex
	ring []Event
	next uint64 // total events emitted

	counts  [numEventKinds]atomic.Uint64
	dropped atomic.Uint64 // events overwritten by ring wrap before any read
	sink    atomic.Pointer[func(Event)]
}

// NewTracer returns a tracer retaining the last capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// SetSink installs fn as the synchronous event sink (nil removes it).
func (t *Tracer) SetSink(fn func(Event)) {
	if fn == nil {
		t.sink.Store(nil)
		return
	}
	t.sink.Store(&fn)
}

// Emit records one event. Safe for concurrent use.
func (t *Tracer) Emit(kind EventKind, node string, when tuple.Time, value int64) {
	if t == nil {
		return
	}
	t.counts[kind].Add(1)
	t.mu.Lock()
	if t.next >= uint64(len(t.ring)) {
		t.dropped.Add(1) // the slot being reused held an unevicted event
	}
	ev := Event{Seq: t.next, Kind: kind, Node: node, When: when, Value: value}
	t.ring[t.next%uint64(len(t.ring))] = ev
	t.next++
	t.mu.Unlock()
	if fn := t.sink.Load(); fn != nil {
		(*fn)(ev)
	}
}

// Total reports the number of events ever emitted.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Count reports how many events of one kind were emitted (ring eviction
// does not affect it).
func (t *Tracer) Count(kind EventKind) uint64 { return t.counts[kind].Load() }

// Dropped reports how many events were silently evicted by ring
// wrap-around — exported as sm_trace_dropped_total (see InstrumentTracer)
// so a wrapping ring is visible instead of quietly lying by omission.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// InstrumentTracer registers the tracer's own meters into reg:
// sm_trace_events_total and sm_trace_dropped_total. Call once per
// registry+tracer pair (typically where both are created, e.g. streamd).
func InstrumentTracer(reg *Registry, t *Tracer) {
	if reg == nil || t == nil {
		return
	}
	reg.CounterFunc("sm_trace_events_total", func() int64 { return int64(t.Total()) })
	reg.CounterFunc("sm_trace_dropped_total", func() int64 { return int64(t.Dropped()) })
}

// Recent copies up to max retained events, oldest first. max ≤ 0 means the
// whole ring.
func (t *Tracer) Recent(max int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	keep := uint64(len(t.ring))
	if n < keep {
		keep = n
	}
	if max > 0 && uint64(max) < keep {
		keep = uint64(max)
	}
	out := make([]Event, 0, keep)
	for i := n - keep; i < n; i++ {
		out = append(out, t.ring[i%uint64(len(t.ring))])
	}
	return out
}

// WriteText renders up to max retained events as one line each.
func (t *Tracer) WriteText(w io.Writer, max int) error {
	for _, ev := range t.Recent(max) {
		if _, err := fmt.Fprintln(w, ev.String()); err != nil {
			return err
		}
	}
	return nil
}
