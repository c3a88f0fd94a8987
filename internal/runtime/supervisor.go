// Fault tolerance for the concurrent runtime: per-node supervision, the
// source-liveness watchdog, and bounded-queue overload policies.
//
// The paper's IWP operators are only live if every input eventually produces
// a tuple or an ETS. Three failure classes break that promise in a real
// deployment, and each gets a defense here:
//
//   - a crashed operator goroutine silences every arc below it → each node
//     runs under a supervisor that recovers panics and restarts the loop
//     (bounded by Options.MaxRestarts with exponential backoff); exhausting
//     the budget fails the whole engine cleanly instead of deadlocking the
//     rest of the graph;
//   - a silently dead external source never answers demand → the watchdog
//     tracks per-source arrival times and, past Options.SourceTimeout,
//     forces a skew-bounded ETS through the source's own goroutine (at most
//     one per timeout window); past Options.SourceDeadAfter it declares the
//     source dead and closes its stream so downstream bounds keep advancing,
//     reviving it if tuples reappear (which then ride the relaxed-more /
//     late-drop paths and are counted as late);
//   - an overloaded graph grows queues without bound → Options.MaxQueueLen
//     caps buffered data per input, either by backpressure (stop draining,
//     let the channel or source inlet fill, block upstream) or by
//     drop-oldest shedding with a per-node TuplesShed counter.
package runtime

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/tuple"
)

// ctlKind is a watchdog → source-node control signal. Control signals are
// delivered over a channel and handled on the source's own goroutine, so the
// watchdog never touches the source's inbox or estimator directly (both are
// single-owner).
type ctlKind uint8

const (
	// ctlForceETS asks an idle source to inject a skew-bounded ETS.
	ctlForceETS ctlKind = iota
	// ctlSourceDead asks the source to close its stream: the watchdog has
	// declared it dead.
	ctlSourceDead
)

// supervise is the per-node goroutine: it runs the scheduling loop, recovers
// panics, and restarts the loop with backoff until the node exits normally
// or its restart budget is exhausted — in which case the engine fails (a
// permanently absent node would deadlock every IWP operator downstream of
// it, which is exactly the stall class this runtime exists to prevent).
func (e *Engine) supervise(n *node) {
	defer e.wg.Done()
	defer e.activeNodes.Add(-1)
	defer n.done.Store(true)
	for {
		if e.runProtected(n) {
			return // normal exit (drain or stop)
		}
		n.obs.panics.Inc()
		if e.trace != nil {
			e.trace.Emit(metrics.EvNodePanic, n.name, e.now(), int64(n.restarts))
		}
		if n.restarts >= e.maxRestarts {
			e.fail(fmt.Errorf("runtime: node %q panicked %d times, restart budget %d exhausted",
				n.name, n.restarts+1, e.maxRestarts))
			return
		}
		n.restarts++
		n.obs.restarts.Inc()
		// Exponential backoff, capped at 256× the base so a crash-looping
		// node cannot freeze its subgraph for long stretches either.
		shift := n.restarts - 1
		if shift > 8 {
			shift = 8
		}
		if e.trace != nil {
			e.trace.Emit(metrics.EvNodeRestart, n.name, e.now(), int64(n.restarts))
		}
		select {
		case <-time.After(e.backoff << uint(shift)):
		case <-e.stop:
			return
		}
	}
}

// runProtected runs one runNode incarnation, converting a panic into a false
// return. Completion (true) means the loop exited by its own rules.
func (e *Engine) runProtected(n *node) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			completed = false
		}
	}()
	e.runNode(n)
	return true
}

// watchdog is the source-liveness monitor. It polls every source node's
// last-arrival clock at a fraction of the timeout; a source silent past
// Options.SourceTimeout while some operator idle-waits gets a forced ETS
// (via its own goroutine, at most one per timeout window), and one silent
// past Options.SourceDeadAfter is declared dead.
func (e *Engine) watchdog() {
	defer e.wg.Done()
	tick := e.opts.SourceTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	timeout := int64(tuple.FromDuration(e.opts.SourceTimeout))
	deadAfter := int64(0)
	if e.opts.SourceDeadAfter > 0 {
		deadAfter = int64(tuple.FromDuration(e.opts.SourceDeadAfter))
	}
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
		}
		if e.activeNodes.Load() == 0 {
			return // graph drained; nothing left to watch
		}
		now := int64(e.now())
		for _, n := range e.srcNodes {
			if n.done.Load() || n.dead.Load() {
				continue
			}
			silence := now - n.lastIn.Load()
			if silence < timeout {
				continue
			}
			if deadAfter > 0 && silence >= deadAfter {
				e.sendCtl(n, ctlSourceDead)
				continue
			}
			// Force at most one ETS per deadline window, and only when the
			// stall can actually be delaying results (an IWP operator is
			// idle-waiting) and the source has a bound to promise.
			if now-n.lastForce.Load() < timeout {
				continue
			}
			if !e.anyIdle() || !n.gn.Source().CanBound() {
				continue
			}
			n.lastForce.Store(now)
			e.sendCtl(n, ctlForceETS)
		}
	}
}

// sendCtl delivers a control signal without blocking: the channel is
// buffered and a busy (or exited) source simply coalesces or ignores it.
func (e *Engine) sendCtl(n *node, k ctlKind) {
	select {
	case n.ctl <- k:
	default:
	}
}

// anyIdle reports whether any node currently has an idle-waiting spell open.
func (e *Engine) anyIdle() bool {
	for _, n := range e.nodes {
		if n.obs.idleSince.Load() >= 0 {
			return true
		}
	}
	return false
}

// handleCtl reacts to a watchdog signal on the source's own goroutine, where
// touching the inbox and the ETS estimator is safe.
func (e *Engine) handleCtl(n *node, k ctlKind) {
	src := n.gn.Source()
	if src == nil || n.srcDone {
		return
	}
	switch k {
	case ctlForceETS:
		if !src.Inbox().Empty() {
			return // data is already on the way; no bound needed
		}
		if src.InjectETS(e.now()) {
			e.forcedETS.Add(1)
			n.obs.forcedETS.Inc()
			if e.trace != nil {
				e.trace.Emit(metrics.EvETSForced, n.name, e.now(), 0)
			}
		}
	case ctlSourceDead:
		if !n.dead.CompareAndSwap(false, true) {
			return
		}
		e.deadSources.Add(1)
		if e.trace != nil {
			e.trace.Emit(metrics.EvSourceDead, n.name, e.now(), 0)
		}
		// Close the stream downstream so watermarks keep advancing past
		// the dead feed. The node itself keeps running: if the source
		// revives, its tuples still flow (as counted late tuples).
		e.emit(n, tuple.EOS())
	}
}

// noteSourceActivity records an arrival at a source node at engine clock now
// and revives it if the watchdog had declared it dead.
func (e *Engine) noteSourceActivity(n *node, now tuple.Time) {
	n.lastIn.Store(int64(now))
	if n.dead.Load() {
		n.dead.Store(false)
		e.deadSources.Add(-1)
		n.obs.revived.Inc()
		if e.trace != nil {
			e.trace.Emit(metrics.EvSourceRevive, n.name, now, 0)
		}
	}
}

// countLate accounts data tuples that arrived below their own arc's
// watermark — the observable footprint of an ETS overshoot or a revived
// source. The tuples themselves ride the relaxed-more / late-drop paths.
func (e *Engine) countLate(n *node, k int) {
	n.obs.lateTuples.Add(uint64(k))
	e.lateTuples.Add(uint64(k))
	if e.trace != nil {
		e.trace.Emit(metrics.EvLateTuple, n.name, e.now(), int64(k))
	}
}

// canDrain reports whether the node may keep moving deliveries from its
// inbox channel (a source: its inlet) into its input queues. Unbounded
// engines and shedding engines always drain; a backpressure engine over its
// bound stops, which fills the channel and blocks upstream sends, or fills
// the inlet and blocks Ingest — the pressure chain.
func (e *Engine) canDrain(n *node) bool {
	if e.maxQueue <= 0 || e.shed {
		return true
	}
	if src := n.gn.Source(); src != nil {
		return src.Inbox().DataLen() < e.maxQueue
	}
	for _, q := range n.ins {
		if q.DataLen() >= e.maxQueue {
			return false
		}
	}
	return true
}

// shedOverflow enforces MaxQueueLen under the shedding policy: each input
// queue over its bound drops its oldest data tuples (punctuation survives)
// and the drop is counted per node, per engine, and in the trace.
func (e *Engine) shedOverflow(n *node) {
	if e.maxQueue <= 0 || !e.shed {
		return
	}
	shed := 0
	if src := n.gn.Source(); src != nil {
		if over := src.Inbox().DataLen() - e.maxQueue; over > 0 {
			shed += src.Inbox().ShedOldest(over)
		}
	} else {
		for _, q := range n.ins {
			if over := q.DataLen() - e.maxQueue; over > 0 {
				shed += q.ShedOldest(over)
			}
		}
	}
	if shed == 0 {
		return
	}
	n.obs.shedTuples.Add(uint64(shed))
	e.tuplesShed.Add(uint64(shed))
	if e.trace != nil {
		e.trace.Emit(metrics.EvShed, n.name, e.now(), int64(shed))
	}
}
