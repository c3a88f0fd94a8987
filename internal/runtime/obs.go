// Live observability for the concurrent runtime. Every node gets a set of
// registry-backed atomic instruments at graph-build time (nodeObs); the hot
// path updates them per batch — never per tuple — so the engine stays within
// its throughput budget, and scrapers read them at any moment without
// stopping a goroutine. Engine.Snapshot() rolls the instruments into one
// structured view: the live analogues of the paper's §6 metrics (output
// latency lives at the sink callback, peak queue size per node here,
// idle-waiting fraction per node here) plus the ETS/demand accounting the
// on-demand design adds.
package runtime

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/tuple"
)

// nodeObs holds one node's live instruments. All fields are registry-backed
// atomics: the owning node goroutine is the only writer of the gauges, any
// goroutine may read. idleSince is engine-local (not a registry metric)
// because open idle spells are folded into idle time at snapshot time.
type nodeObs struct {
	tuplesIn   *metrics.Counter64
	tuplesOut  *metrics.Counter64
	punctIn    *metrics.Counter64
	punctOut   *metrics.Counter64
	batchesOut *metrics.Counter64

	queueDepth *metrics.Gauge64
	queueHWM   *metrics.Gauge64

	wmIn  *metrics.Gauge64 // last punctuation bound received
	wmOut *metrics.Gauge64 // last punctuation bound emitted

	idleUs     *metrics.Counter64 // closed idle-waiting spells, µs
	idleSpells *metrics.Counter64
	idleSince  atomic.Int64 // engine clock µs when the open spell began; -1 when not idle

	etsInternal *metrics.Counter64 // on-demand ETS generated (internal-ts source)
	etsExternal *metrics.Counter64 // on-demand ETS generated (external-ts source)
	boundReads  *metrics.Counter64 // bounds consumers read in place of an ETS (internal-ts source)

	demandSent *metrics.Counter64
	demandRecv *metrics.Counter64

	// Fault-tolerance instruments: supervisor events (panics, restarts),
	// watchdog events (forcedETS, revived — sources only), and overload /
	// lateness accounting (shedTuples, lateTuples).
	panics     *metrics.Counter64
	restarts   *metrics.Counter64
	forcedETS  *metrics.Counter64
	revived    *metrics.Counter64
	shedTuples *metrics.Counter64
	lateTuples *metrics.Counter64

	// retunes counts reconfigurations applied at this node's punctuation
	// boundaries (the adaptive controller's apply-side evidence).
	retunes *metrics.Counter64

	// Watermark-lag attribution, indexed by input port (sources have one
	// port — the ingest feed). arcWm is the highest punctuation bound seen
	// on that arc; arcLag a reservoir of event-time lag samples (engine
	// clock − punctuation bound, µs, observed at punct arrival): how far
	// each arc's watermark trails the clock. stallBy counts idle-waiting
	// spells charged to that input (the blocking input when the spell
	// opened); stallUsBy the µs so charged. blockedOn is the port the open
	// spell is charged to, -1 while not idle-waiting.
	arcWm     []*metrics.Gauge64
	arcLag    []*metrics.Reservoir
	stallBy   []*metrics.Counter64
	stallUsBy []*metrics.Counter64
	blockedOn *metrics.Gauge64
}

// arcLagWindow is the per-arc lag reservoir capacity: big enough for a
// stable p99 over a scrape interval, small enough that a wide graph stays
// cheap (the reservoir is lock-free and fixed-size).
const arcLagWindow = 512

// instrument builds every node's instruments and the engine-level metrics,
// registering them under sm_* names with {node=...,id=...} labels.
func (e *Engine) instrument() {
	reg := e.reg
	for _, n := range e.nodes {
		n := n
		lbl := fmt.Sprintf("{node=%q,id=%q}", n.name, fmt.Sprint(n.gn.ID))
		o := &nodeObs{
			tuplesIn:    reg.Counter("sm_node_tuples_in_total" + lbl),
			tuplesOut:   reg.Counter("sm_node_tuples_out_total" + lbl),
			punctIn:     reg.Counter("sm_node_punct_in_total" + lbl),
			punctOut:    reg.Counter("sm_node_punct_out_total" + lbl),
			batchesOut:  reg.Counter("sm_node_batches_out_total" + lbl),
			queueDepth:  reg.Gauge("sm_node_queue_depth" + lbl),
			queueHWM:    reg.Gauge("sm_node_queue_hwm" + lbl),
			wmIn:        reg.Gauge("sm_node_watermark_in_us" + lbl),
			wmOut:       reg.Gauge("sm_node_watermark_us" + lbl),
			idleUs:      reg.Counter("sm_node_idle_us_total" + lbl),
			idleSpells:  reg.Counter("sm_node_idle_spells_total" + lbl),
			demandSent:  reg.Counter("sm_node_demand_sent_total" + lbl),
			demandRecv:  reg.Counter("sm_node_demand_recv_total" + lbl),
			etsInternal: reg.Counter("sm_node_ets_internal_total" + lbl),
			etsExternal: reg.Counter("sm_node_ets_external_total" + lbl),
			boundReads:  reg.Counter("sm_node_bound_reads_total" + lbl),
			panics:      reg.Counter("sm_node_panics_total" + lbl),
			restarts:    reg.Counter("sm_node_restarts_total" + lbl),
			forcedETS:   reg.Counter("sm_node_forced_ets_total" + lbl),
			revived:     reg.Counter("sm_node_revived_total" + lbl),
			shedTuples:  reg.Counter("sm_node_shed_total" + lbl),
			lateTuples:  reg.Counter("sm_node_late_tuples_total" + lbl),
			retunes:     reg.Counter("sm_node_retunes_total" + lbl),
		}
		o.idleSince.Store(-1)
		o.wmIn.Set(int64(tuple.MinTime))
		o.wmOut.Set(int64(tuple.MinTime))
		// Per-input-arc lag and stall attribution. A source's single
		// "arc" is its ingest feed.
		nin := n.gn.Op.NumInputs()
		if nin < 1 {
			nin = 1
		}
		o.arcWm = make([]*metrics.Gauge64, nin)
		o.arcLag = make([]*metrics.Reservoir, nin)
		o.stallBy = make([]*metrics.Counter64, nin)
		o.stallUsBy = make([]*metrics.Counter64, nin)
		for p := 0; p < nin; p++ {
			plbl := fmt.Sprintf("{node=%q,id=%q,port=%q}", n.name, fmt.Sprint(n.gn.ID), fmt.Sprint(p))
			o.arcWm[p] = reg.Gauge("sm_arc_watermark_us" + plbl)
			o.arcWm[p].Set(int64(tuple.MinTime))
			o.arcLag[p] = reg.Reservoir("sm_arc_wm_lag_us"+plbl, arcLagWindow)
			o.stallBy[p] = reg.Counter("sm_node_stall_by_input_total" + plbl)
			o.stallUsBy[p] = reg.Counter("sm_node_stall_by_input_us_total" + plbl)
		}
		o.blockedOn = reg.Gauge("sm_node_blocking_input" + lbl)
		o.blockedOn.Set(-1)
		n.obs = o
		reg.GaugeFunc("sm_node_chan_backlog"+lbl, func() int64 { return int64(n.backlog()) })
		// Live tuned value: /vars shows what the adaptive controller has
		// actually applied, per node.
		reg.GaugeFunc("sm_node_batch_size"+lbl, func() int64 { return n.batchSize.Load() })
		reg.GaugeFunc("sm_node_idle"+lbl, func() int64 {
			if o.idleSince.Load() >= 0 {
				return 1
			}
			return 0
		})
		if n.gn.Source() != nil {
			reg.GaugeFunc("sm_node_dead"+lbl, func() int64 {
				if n.dead.Load() {
					return 1
				}
				return 0
			})
		}
	}
	reg.CounterFunc("sm_engine_tuples_sent_total", func() int64 { return int64(e.tuplesSent.Load()) })
	reg.CounterFunc("sm_engine_batches_sent_total", func() int64 { return int64(e.batchesSent.Load()) })
	reg.CounterFunc("sm_engine_ets_generated_total", func() int64 { return int64(e.etsGenerated.Load()) })
	reg.CounterFunc("sm_engine_bound_reads_total", func() int64 { return int64(e.boundReads.Load()) })
	reg.CounterFunc("sm_engine_forced_ets_total", func() int64 { return int64(e.forcedETS.Load()) })
	reg.CounterFunc("sm_engine_shed_total", func() int64 { return int64(e.tuplesShed.Load()) })
	reg.CounterFunc("sm_engine_late_tuples_total", func() int64 { return int64(e.lateTuples.Load()) })
	reg.GaugeFunc("sm_engine_dead_sources", func() int64 { return e.deadSources.Load() })
	reg.GaugeFunc("sm_engine_uptime_us", func() int64 {
		start := e.startTs.Load()
		if start < 0 {
			return 0
		}
		return int64(e.now()) - start
	})
	reg.CounterFunc("sm_ckpt_total", func() int64 { return int64(e.ckptTotal.Load()) })
	reg.CounterFunc("sm_ckpt_failed_total", func() int64 { return int64(e.ckptFailed.Load()) })
	reg.CounterFunc("sm_ckpt_bytes_total", func() int64 { return int64(e.ckptBytes.Load()) })
	// Engine clock of the last completed checkpoint — 0 until one completes,
	// so readiness probes can distinguish "never checkpointed" cheaply.
	reg.GaugeFunc("sm_ckpt_last_complete_us", func() int64 { return e.ckptLastUs.Load() })
	e.ckptDur = reg.Reservoir("sm_ckpt_duration_us", 256)
	if e.plan != nil {
		for s := 0; s < e.plan.Shards; s++ {
			s := s
			reg.CounterFunc(fmt.Sprintf("sm_shard_tuples_total{shard=%q}", fmt.Sprint(s)), func() int64 {
				counts := e.ShardTuples()
				if s >= len(counts) {
					return 0
				}
				return int64(counts[s])
			})
		}
		reg.GaugeFunc("sm_shard_skew_ppm", func() int64 {
			return int64(partition.Skew(e.ShardTuples()) * 1e6)
		})
		// Per-splitter assignment versions: nonzero means a retarget was
		// promoted at a punctuation barrier.
		for _, sh := range e.plan.Ops {
			for port, id := range sh.Splitters {
				if s, ok := e.g.Node(id).Op.(*ops.Split); ok {
					lbl := fmt.Sprintf("{op=%q,port=%q}", sh.Name, fmt.Sprint(port))
					reg.GaugeFunc("sm_split_assign_version"+lbl, func() int64 {
						return int64(s.AssignVersion())
					})
				}
			}
		}
	}
}

// publishQueues publishes the node's total input occupancy; called by the
// owning goroutine once per scheduling iteration, right after the channel
// drain, when queues are at their fullest.
func (e *Engine) publishQueues(n *node) {
	d := 0
	if src := n.gn.Source(); src != nil {
		d = src.Inbox().Len()
	} else {
		for _, q := range n.ins {
			d += q.Len()
		}
	}
	v := int64(d)
	n.obs.queueDepth.Set(v)
	if v > n.obs.queueHWM.Load() {
		n.obs.queueHWM.Set(v) // single writer: load+store suffices
	}
}

// enterIdle opens an idle-waiting spell if the node is about to block while
// holding input data (the paper's idle-waiting condition) and no spell is
// already open. Demand retries keep one spell open rather than opening a
// new spell per retry. The spell is charged to the operator's blocking
// input — the arc whose missing timestamp bound is the reason the node
// cannot run — so a stalled watermark is attributable, not just visible.
func (e *Engine) enterIdle(n *node, ctx *ops.Ctx) {
	if n.obs.idleSince.Load() >= 0 || !e.hasData(n) {
		return
	}
	now := int64(e.now())
	n.obs.idleSince.Store(now)
	n.obs.idleSpells.Inc()
	if len(n.gn.Preds) > 0 && ctx != nil {
		j := n.gn.Op.BlockingInput(ctx)
		if j < 0 {
			j = 0
		}
		if j < len(n.obs.stallBy) {
			n.idleBlockedOn = j
			n.obs.stallBy[j].Inc()
			n.obs.blockedOn.Set(int64(j))
		}
	}
	if e.trace != nil {
		e.trace.Emit(metrics.EvIdleEnter, n.name, tuple.Time(now), 0)
	}
}

// exitIdle closes the open idle-waiting spell, if any, charging its
// duration. Called when the operator actually makes progress again (or the
// node terminates), matching the reactivation semantics of §4.
func (e *Engine) exitIdle(n *node) {
	since := n.obs.idleSince.Load()
	if since < 0 {
		return
	}
	n.obs.idleSince.Store(-1)
	now := int64(e.now())
	d := now - since
	if d < 0 {
		d = 0
	}
	n.obs.idleUs.Add(uint64(d))
	if j := n.idleBlockedOn; j >= 0 && j < len(n.obs.stallUsBy) {
		n.obs.stallUsBy[j].Add(uint64(d))
	}
	n.idleBlockedOn = -1
	n.obs.blockedOn.Set(-1)
	if e.trace != nil {
		e.trace.Emit(metrics.EvIdleExit, n.name, tuple.Time(now), d)
	}
}

// notePunctOut accounts an emitted punctuation and advances the node's
// output watermark, tracing the advance. Single writer per node.
func (e *Engine) notePunctOut(n *node, t *tuple.Tuple) {
	if e.spans != nil && t.Trace != 0 {
		// The node's watermark advanced on account of this trace.
		e.spans.Record(t.Trace, n.name, obs.PhaseApply, t.Ts)
	}
	n.obs.punctOut.Inc()
	n.punctBoundary = true
	n.sincePunct = 0
	if t.Ts == tuple.MaxTime {
		return
	}
	v := int64(t.Ts)
	if v > n.obs.wmOut.Load() {
		n.obs.wmOut.Set(v)
		if e.trace != nil {
			e.trace.Emit(metrics.EvWatermarkAdvance, n.name, e.now(), v)
		}
	}
}

// notePunctArrival is the delivery-time superset of notePunctIn: besides
// the node-level counters it attributes the bound to the arriving arc —
// per-arc watermark gauge and event-time-lag reservoir (engine clock minus
// the bound: how far this arc's watermark trails "now") — and records the
// dequeue span event for a traced punctuation. port is the input arc (0
// for a source's ingest feed); trace 0 means untraced. Neither EOS (at
// MaxTime) nor a punctuation at MinTime, which bounds nothing, is a lag
// sample.
func (e *Engine) notePunctArrival(n *node, port int, ts tuple.Time, trace uint64) {
	n.notePunctIn(ts)
	o := n.obs
	if ts != tuple.MaxTime && ts != tuple.MinTime && port >= 0 && port < len(o.arcWm) {
		v := int64(ts)
		if v > o.arcWm[port].Load() {
			o.arcWm[port].Set(v) // single writer: load+store suffices
		}
		o.arcLag[port].Observe(int64(e.now()) - v)
	}
	if trace != 0 {
		n.lastInTrace = trace
		if e.spans != nil {
			e.spans.Record(trace, n.name, obs.PhaseDequeue, ts)
			if len(n.outs) == 0 {
				// Terminal node: the journey is complete.
				e.spans.Record(trace, n.name, obs.PhaseSink, ts)
			}
		}
	}
}

// stampPunctTrace gives an emitted punctuation its propagation trace just
// before it is appended to the out arcs. A source emission with no trace is
// a generation point (on-demand ETS, watchdog-forced ETS, or replay
// ingest) and opens a fresh timeline; an interior emission inherits the
// last traced bound delivered to the node — exact for operators that
// forward the punct tuple itself, best-effort causal attribution for TSM
// operators that synthesize their own bounds.
func (e *Engine) stampPunctTrace(n *node, t *tuple.Tuple) {
	if e.spans == nil || t.Trace != 0 {
		return
	}
	if n.gn.Source() != nil {
		t.Trace = e.spans.NewTrace()
		e.spans.Record(t.Trace, n.name, obs.PhaseGen, t.Ts)
		return
	}
	t.Trace = n.lastInTrace // may stay 0: upstream was never traced
}

// backlog is NodeSnapshot.ChanBacklog: batches in an interior node's inbox
// channel, tuples in a source's inlet. Safe from any goroutine.
func (n *node) backlog() int {
	if n.inlet != nil {
		return n.inlet.len()
	}
	return len(n.in)
}

// notePunctIn accounts a received punctuation and raises the node's input
// watermark. Single writer per node.
func (n *node) notePunctIn(ts tuple.Time) {
	n.obs.punctIn.Inc()
	if ts == tuple.MaxTime {
		return
	}
	if v := int64(ts); v > n.obs.wmIn.Load() {
		n.obs.wmIn.Set(v)
	}
}

// Registry exposes the engine's live metrics registry (the one passed via
// Options.Metrics, or the engine's own); serve it with metrics.Handler or
// render it with its Write* methods.
func (e *Engine) Registry() *metrics.Registry { return e.reg }

// NodeInstruments exposes one node's live counters so a controller can keep
// its own metrics.RateWindow deltas against them instead of diffing whole
// snapshots each tick. All fields are nil for an unknown id.
type NodeInstruments struct {
	TuplesIn   *metrics.Counter64
	TuplesOut  *metrics.Counter64
	BatchesOut *metrics.Counter64
	QueueDepth *metrics.Gauge64
}

// NodeInstruments returns node id's live instruments (see NodeInstruments).
func (e *Engine) NodeInstruments(id int) NodeInstruments {
	if id < 0 || id >= len(e.nodes) {
		return NodeInstruments{}
	}
	o := e.nodes[id].obs
	return NodeInstruments{
		TuplesIn:   o.tuplesIn,
		TuplesOut:  o.tuplesOut,
		BatchesOut: o.batchesOut,
		QueueDepth: o.queueDepth,
	}
}

// ArcSnapshot is one input arc's watermark-lag attribution: how far the
// arc's bound trails the engine clock and how much idle-waiting the arc has
// been blamed for.
type ArcSnapshot struct {
	// Port is the input index at the consuming node (0 for a source's
	// ingest feed).
	Port int
	// Watermark is the highest punctuation bound received on this arc.
	Watermark tuple.Time
	// Lag is the reservoir of event-time lag samples (engine clock −
	// bound, µs, observed at punct arrival).
	Lag metrics.ReservoirSnapshot
	// Stalls counts idle-waiting spells charged to this input being the
	// blocking one; StallTime their accumulated duration.
	Stalls    uint64
	StallTime tuple.Time
}

// NodeSnapshot is one node's instrument readings.
type NodeSnapshot struct {
	// Node is the operator name; ID its graph node id.
	Node string
	ID   int
	// TuplesIn/TuplesOut count every tuple (data + punctuation) delivered
	// to / sent from the node; PunctIn/PunctOut count the punctuation
	// subset. BatchesOut counts arc deliveries.
	TuplesIn, TuplesOut uint64
	PunctIn, PunctOut   uint64
	BatchesOut          uint64
	// QueueDepth is the node's buffered input occupancy as last published
	// by its goroutine; QueueHWM its high-water mark; ChanBacklog what waits
	// for the goroutine to pick it up — arc deliveries (batches) in an
	// interior node's inbox channel, tuples in a source's inlet.
	QueueDepth, QueueHWM, ChanBacklog int
	// WatermarkIn/Watermark are the highest punctuation bounds received /
	// emitted (MinTime until the first punctuation).
	WatermarkIn, Watermark tuple.Time
	// Idle reports whether an idle-waiting spell is open right now;
	// IdleSpells how many spells ever opened; IdleTime the cumulative
	// idle-waiting duration (open spell included); IdleFraction IdleTime
	// over engine uptime — the paper's "% of time idle-waiting".
	Idle         bool
	IdleSpells   uint64
	IdleTime     tuple.Time
	IdleFraction float64
	// ETSInternal/ETSExternal count on-demand ETS generated at this node
	// (sources only), split by the stream's timestamp kind. BoundReads
	// counts the bounds blocked consumers read from this source instead
	// (internal-timestamp sources only).
	ETSInternal, ETSExternal uint64
	BoundReads               uint64
	// DemandSent counts demand signalling rounds this node initiated;
	// DemandRecv demand signals it received.
	DemandSent, DemandRecv uint64
	// Panics counts recovered panics in this node's scheduling loop;
	// Restarts how many times the supervisor relaunched it.
	Panics, Restarts uint64
	// ForcedETS counts watchdog-forced ETS injections (sources only);
	// Revived how often a dead-declared source came back; Dead whether the
	// watchdog currently considers the source dead.
	ForcedETS, Revived uint64
	Dead               bool
	// LateTuples counts data tuples that arrived below a bound already
	// received on their own input arc; TuplesShed data tuples dropped by
	// the overload shedder.
	LateTuples, TuplesShed uint64
	// BatchSize is the node's live per-arc batch capacity; Retunes counts
	// reconfigurations applied at punctuation boundaries.
	BatchSize int
	Retunes   uint64
	// Arcs is the per-input watermark-lag attribution; BlockingInput the
	// input the open idle spell is charged to (-1 when not idle-waiting).
	Arcs          []ArcSnapshot
	BlockingInput int
}

// Snapshot is a consistent-enough point-in-time view of the whole engine:
// every metric is read once from live atomics, without pausing any node.
type Snapshot struct {
	// Now is the engine clock at the snapshot; Uptime the time since
	// Start (0 before).
	Now, Uptime tuple.Time
	// Engine-level data-plane totals. BoundReads counts the bounds blocked
	// operators read from idle internal sources in place of an ETS.
	TuplesSent, BatchesSent, ETSGenerated uint64
	BoundReads                            uint64
	// Engine-level fault-tolerance totals: watchdog-forced ETS, tuples
	// dropped by the shedder, tuples that arrived below a node's input
	// watermark, and the number of sources currently declared dead.
	ForcedETS, TuplesShed, LateTuples uint64
	DeadSources                       int
	// Nodes holds one entry per graph node, in node-id order.
	Nodes []NodeSnapshot
	// ShardTuples is the per-shard routed-tuple rollup (nil unsharded);
	// ShardSkew its (max−mean)/mean imbalance.
	ShardTuples []uint64
	ShardSkew   float64
}

// Node returns the snapshot entry for the named operator, or nil.
func (s *Snapshot) Node(name string) *NodeSnapshot {
	for i := range s.Nodes {
		if s.Nodes[i].Node == name {
			return &s.Nodes[i]
		}
	}
	return nil
}

// Snapshot reads every node's live instruments. Safe to call at any time,
// including while the engine runs.
func (e *Engine) Snapshot() Snapshot {
	now := e.now()
	s := Snapshot{
		Now:          now,
		TuplesSent:   e.tuplesSent.Load(),
		BatchesSent:  e.batchesSent.Load(),
		ETSGenerated: e.etsGenerated.Load(),
		BoundReads:   e.boundReads.Load(),
		ForcedETS:    e.forcedETS.Load(),
		TuplesShed:   e.tuplesShed.Load(),
		LateTuples:   e.lateTuples.Load(),
		DeadSources:  int(e.deadSources.Load()),
	}
	if start := e.startTs.Load(); start >= 0 {
		s.Uptime = now - tuple.Time(start)
	}
	s.Nodes = make([]NodeSnapshot, 0, len(e.nodes))
	for _, n := range e.nodes {
		o := n.obs
		ns := NodeSnapshot{
			Node:        n.name,
			ID:          int(n.gn.ID),
			TuplesIn:    o.tuplesIn.Load(),
			TuplesOut:   o.tuplesOut.Load(),
			PunctIn:     o.punctIn.Load(),
			PunctOut:    o.punctOut.Load(),
			BatchesOut:  o.batchesOut.Load(),
			QueueDepth:  int(o.queueDepth.Load()),
			QueueHWM:    int(o.queueHWM.Load()),
			ChanBacklog: n.backlog(),
			WatermarkIn: tuple.Time(o.wmIn.Load()),
			Watermark:   tuple.Time(o.wmOut.Load()),
			IdleSpells:  o.idleSpells.Load(),
			ETSInternal: o.etsInternal.Load(),
			ETSExternal: o.etsExternal.Load(),
			BoundReads:  o.boundReads.Load(),
			DemandSent:  o.demandSent.Load(),
			DemandRecv:  o.demandRecv.Load(),
			Panics:      o.panics.Load(),
			Restarts:    o.restarts.Load(),
			ForcedETS:   o.forcedETS.Load(),
			Revived:     o.revived.Load(),
			LateTuples:  o.lateTuples.Load(),
			TuplesShed:  o.shedTuples.Load(),
			Dead:        n.dead.Load(),

			BatchSize:     int(n.batchSize.Load()),
			Retunes:       o.retunes.Load(),
			BlockingInput: int(o.blockedOn.Load()),
		}
		ns.Arcs = make([]ArcSnapshot, len(o.arcWm))
		for p := range o.arcWm {
			ns.Arcs[p] = ArcSnapshot{
				Port:      p,
				Watermark: tuple.Time(o.arcWm[p].Load()),
				Lag:       o.arcLag[p].Snapshot(),
				Stalls:    o.stallBy[p].Load(),
				StallTime: tuple.Time(o.stallUsBy[p].Load()),
			}
		}
		idle := tuple.Time(o.idleUs.Load())
		if since := o.idleSince.Load(); since >= 0 {
			ns.Idle = true
			if open := now - tuple.Time(since); open > 0 {
				idle += open
			}
		}
		ns.IdleTime = idle
		if s.Uptime > 0 {
			ns.IdleFraction = float64(idle) / float64(s.Uptime)
			if ns.IdleFraction > 1 {
				ns.IdleFraction = 1
			}
		}
		s.Nodes = append(s.Nodes, ns)
	}
	s.ShardTuples = e.ShardTuples()
	s.ShardSkew = partition.Skew(s.ShardTuples)
	return s
}
