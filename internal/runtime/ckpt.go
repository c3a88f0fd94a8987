// Checkpointing by a timestamp cut (DESIGN.md §14). A checkpoint picks one
// timestamp T just above everything the sources have been given (armCut)
// and arms every source with (id, T). Each source emits a barrier — a
// punctuation at Ts = T tagged with the checkpoint id — just before the
// first tuple, ETS or EOS it emits at or above T, so its sequence number
// there is an exact replay prefix. Splitters broadcast a copy to every
// shard, and a multi-input operator aligns the copies by τ-order alone: a
// barrier is consumed before data at an equal timestamp, and nothing after a
// barrier on its arc is below T. The moment a barrier fully applies at a
// node — at a multi-input operator, when the last input's barrier pops — the
// node invokes its Ctx.OnBarrier callback on its own goroutine, the one
// instant its state is both quiescent and safely readable, and the engine
// encodes the operator's state right there. The engine-side collector below
// gathers one report per node and assembles the snapshot.
package runtime

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// ErrCkptUnsupported reports a graph configuration the timestamp cut cannot
// checkpoint: an IWP operator outside TSM mode, or two stateful nodes
// with the same name.
var ErrCkptUnsupported = errors.New("runtime: graph not checkpointable")

// ckptReport is one node's barrier application: the node itself, the barrier
// identity, the bound the barrier carried at this node, and — for stateful
// operators — the encoded state.
type ckptReport struct {
	n       *node
	id      uint64
	bound   tuple.Time
	payload []byte
	// stateful records whether the node's operator implements ops.Stateful
	// (a nil payload alone cannot distinguish "stateless" from "empty
	// state").
	stateful bool
}

// ckptCollect is one in-flight checkpoint's collection point. Node
// goroutines load it from Engine.ckptCur and send their report; a stale or
// cleared pointer means the barrier belongs to an abandoned attempt and the
// report is dropped.
type ckptCollect struct {
	id uint64
	ch chan ckptReport
}

// onBarrier runs on n's goroutine at the instant a checkpoint barrier fully
// applied there (for multi-input operators: when the last input's barrier
// popped, before the operator forwards its own). It encodes the operator's
// state and reports to the in-flight collection.
func (e *Engine) onBarrier(n *node, id uint64, bound tuple.Time) {
	cc := e.ckptCur.Load()
	if cc == nil || cc.id != id {
		return // barrier from an abandoned or superseded checkpoint
	}
	r := ckptReport{n: n, id: id, bound: bound}
	if s, ok := n.gn.Op.(ops.Stateful); ok {
		enc := &ckpt.Encoder{}
		s.SaveState(enc)
		r.payload = enc.Bytes()
		r.stateful = true
	}
	if e.trace != nil {
		if n.gn.Source() != nil {
			e.trace.Emit(metrics.EvCkptBarrier, n.name, e.now(), int64(bound))
		}
		e.trace.Emit(metrics.EvCkptNode, n.name, e.now(), int64(len(r.payload)))
	}
	select {
	case cc.ch <- r:
	default:
		// The channel is sized for one report per node; a full channel means
		// duplicate reports from a protocol bug. Dropping keeps the node
		// goroutine unblocked; the collector times out and fails loudly.
	}
}

// ckptSupported verifies the graph can host the timestamp cut: every IWP
// operator in TSM mode (Basic and Latent modes consume punctuation without
// forwarding it, so a barrier would die there), and distinct names for
// stateful nodes (segment names must identify them).
func (e *Engine) ckptSupported() error {
	seen := make(map[string]bool)
	for _, n := range e.nodes {
		if n.iwp != nil && n.iwp.Mode() != ops.TSM {
			return fmt.Errorf("%w: node %q runs IWP mode %v (need TSM to forward barriers)",
				ErrCkptUnsupported, n.name, n.iwp.Mode())
		}
		if _, ok := n.gn.Op.(ops.Stateful); ok {
			if seen[n.name] {
				return fmt.Errorf("%w: duplicate stateful node name %q", ErrCkptUnsupported, n.name)
			}
			seen[n.name] = true
		}
	}
	return nil
}

// Checkpoint cuts one snapshot at a timestamp: it arms every source with a
// cut at T tagged id (armCut), waits for every node to report the barrier's
// application, and returns the assembled snapshot, whose Barrier is T. Calls
// are serialized; a second checkpoint waits for the first. The engine must
// be started.
//
// It completes once every source has reached T: with its next tuple, once
// it can promise T while idle (at once if it has nothing to bound: a latent
// stream, or an external one that has seen no tuple), or with its EOS. A
// source that cannot promise T (an external one whose skew bound δ outlasts
// the wait) keeps it waiting; one that already emitted past T refuses the
// cut and the attempt fails at once — a checkpoint may be late, never wrong.
// A failed attempt disarms the cuts not yet reached; its barriers in flight
// lose to the next checkpoint's.
//
// A barrier rides the arcs FIFO behind the data below T, so checkpoint
// latency is bounded by queue depth over service rate. With unbounded queues
// (Options.MaxQueueLen == 0) an overloaded operator — e.g. a join whose
// fan-out outpaces its sink — pushes the barrier back indefinitely and every
// attempt times out. Periodic checkpointing should run with a queue bound and
// the backpressure policy (not Shed, which drops tuples the snapshot's
// sources have already counted).
func (e *Engine) Checkpoint(id uint64, timeout time.Duration) (*ckpt.Snapshot, error) {
	if id == 0 {
		return nil, errors.New("runtime: checkpoint id must be nonzero (zero tags mean no barrier)")
	}
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if !started {
		return nil, errors.New("runtime: checkpoint requires a started engine")
	}
	if err := e.ckptSupported(); err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = ckpt.DefaultTimeout
	}

	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	begin := time.Now()
	cc := &ckptCollect{id: id, ch: make(chan ckptReport, len(e.nodes))}
	e.ckptCur.Store(cc)
	defer e.ckptCur.Store(nil)

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	abort := func(why string) (*ckpt.Snapshot, error) {
		for _, sn := range e.srcNodes {
			sn.gn.Source().CancelCut(id)
		}
		e.ckptFailed.Add(1)
		if e.trace != nil {
			e.trace.Emit(metrics.EvCkptAbort, "", e.now(), int64(id))
		}
		return nil, fmt.Errorf("runtime: checkpoint %d: %s", id, why)
	}

	at, err := e.armCut(id)
	if err != nil {
		return abort(err.Error())
	}
	nudge := time.NewTicker(demandRetry)
	defer nudge.Stop()

	// Collect one report per node — stateless nodes report too (nil
	// payload), which is what makes "every node applied the barrier" the
	// completion condition rather than a guess. Until a source has cut,
	// each nudge asks it, if idle, to reach T with what it can promise.
	seen := make(map[*node]ckptReport, len(e.nodes))
	collect := func(r ckptReport) {
		if r.id == id {
			seen[r.n] = r
		}
	}
	for len(seen) < len(e.nodes) {
		select {
		case r := <-cc.ch:
			collect(r)
		case <-nudge.C:
			for _, sn := range e.srcNodes {
				if _, ok := seen[sn]; ok {
					continue
				}
				if sn.gn.Source().CutRefused(id) {
					return abort(fmt.Sprintf("source %q already emitted at or past the cut at %d", sn.name, at))
				}
				if sn.done.Load() {
					// A source reports before it exits: its report, if
					// any, is already queued.
					for len(cc.ch) > 0 {
						collect(<-cc.ch)
					}
					if _, ok := seen[sn]; !ok {
						return abort(fmt.Sprintf("source %q ended before the cut at %d", sn.name, at))
					}
					continue
				}
				e.sendCtl(sn, ctlCut)
			}
		case <-e.stop:
			return abort("engine stopped while collecting")
		case <-deadline.C:
			missing := make([]string, 0, 4)
			for _, n := range e.nodes {
				if _, ok := seen[n]; !ok {
					missing = append(missing, n.name)
					if len(missing) == 4 {
						break
					}
				}
			}
			return abort(fmt.Sprintf("timeout waiting for %d/%d nodes (e.g. %v)",
				len(e.nodes)-len(seen), len(e.nodes), missing))
		}
	}

	snap := &ckpt.Snapshot{ID: id, Barrier: at, When: time.Now().UnixMicro()}
	var bytes uint64
	for n, r := range seen {
		if !r.stateful {
			continue
		}
		snap.Segments = append(snap.Segments, ckpt.Segment{Name: n.name, Payload: r.payload})
		bytes += uint64(len(r.payload))
	}
	sort.Slice(snap.Segments, func(i, j int) bool { return snap.Segments[i].Name < snap.Segments[j].Name })

	e.ckptTotal.Add(1)
	e.ckptBytes.Add(bytes)
	e.ckptLastUs.Store(int64(e.now()))
	if e.ckptDur != nil {
		e.ckptDur.Observe(time.Since(begin).Microseconds())
	}
	if e.trace != nil {
		e.trace.Emit(metrics.EvCkptComplete, "", e.now(), int64(id))
	}
	return snap, nil
}

// armCut picks the cut's timestamp and arms every source with it in one
// step, holding every inlet's lock: it reads each source's highest recorded
// timestamp (inlet.hi) and places T above the maximum (e.cutAt). Whatever a
// source emits before it sees its cut was recorded before that step, so it
// is below T.
func (e *Engine) armCut(id uint64) (tuple.Time, error) {
	top := tuple.MinTime
	for _, sn := range e.srcNodes {
		sn.inlet.mu.Lock()
		defer sn.inlet.mu.Unlock()
		top = max(top, sn.inlet.hi)
	}
	at := e.cutAt(top)
	for _, sn := range e.srcNodes {
		sn.inlet.hi = max(sn.inlet.hi, at) // the barrier is a timestamp the source emits too
		if !sn.gn.Source().ArmCut(id, at) {
			return at, fmt.Errorf("source %q holds another cut", sn.name)
		}
	}
	return at, nil
}

// Restore loads a snapshot's segments into the graph's stateful operators.
// It must run after New and before Start — restoring into a running graph
// would race with the node goroutines. Matching is strict both ways: every
// segment must find its operator and every stateful operator its segment,
// so a restored process runs the same graph that was checkpointed.
func (e *Engine) Restore(snap *ckpt.Snapshot) error {
	if snap == nil {
		return errors.New("runtime: restore from nil snapshot")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return errors.New("runtime: restore requires a not-yet-started engine")
	}
	if err := e.ckptSupported(); err != nil {
		return err
	}
	stateful := make(map[string]ops.Stateful, len(e.nodes))
	for _, n := range e.nodes {
		if s, ok := n.gn.Op.(ops.Stateful); ok {
			stateful[n.name] = s
		}
	}

	if len(stateful) != len(snap.Segments) {
		return fmt.Errorf("runtime: restore: snapshot has %d segments, graph has %d stateful nodes",
			len(snap.Segments), len(stateful))
	}
	for _, seg := range snap.Segments {
		s, ok := stateful[seg.Name]
		if !ok {
			return fmt.Errorf("runtime: restore: snapshot segment %q has no stateful node", seg.Name)
		}
		dec := ckpt.NewDecoder(seg.Payload)
		if err := s.RestoreState(dec); err != nil {
			return fmt.Errorf("runtime: restore %q: %w", seg.Name, err)
		}
		if err := dec.Done(); err != nil {
			return fmt.Errorf("runtime: restore %q: trailing state: %w", seg.Name, err)
		}
	}
	// The restored state reaches up to the snapshot's cut (multi-input
	// registers are capped there), so the next cut goes above it: below it,
	// a restored operator would take the new barriers before its inputs
	// reach them.
	for _, sn := range e.srcNodes {
		sn.inlet.hi = max(sn.inlet.hi, snap.Barrier)
	}
	if e.trace != nil {
		e.trace.Emit(metrics.EvCkptRestore, "", e.now(), int64(snap.ID))
	}
	return nil
}

var _ ckpt.Engine = (*Engine)(nil)
