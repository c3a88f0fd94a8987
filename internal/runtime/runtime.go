// Package runtime executes a query graph in real time with one goroutine
// per operator and channels as arcs — the natural Go embodiment of the
// paper's execution model. Where the simulation engine discovers ETS demand
// by backtracking, the concurrent engine propagates an explicit *demand
// signal* upstream: an idle-waiting operator that holds data but cannot run
// sends a demand toward the source feeding its blocking input; the source
// answers with an on-demand ETS punctuation (subject to the same per-kind
// estimator rules), unless the operator could read that bound itself (see
// Bound reads). Demand signals are hints — they are sent without
// blocking and dropped when a node is busy, which keeps the engine
// deadlock-free (data flows strictly downstream, demand strictly upstream,
// and only data sends may block).
//
// # Batched data plane
//
// Arcs carry batches ([]*tuple.Tuple) rather than single tuples, amortizing
// the channel synchronization that otherwise dominates the hot path. A node
// accumulates up to Options.BatchSize output tuples per arc before sending;
// batch slices are reused through a sync.Pool, so moving a batch allocates
// nothing in the steady state. Batching must not reintroduce the latency the
// paper's on-demand ETS design eliminates, so four flush triggers bound how
// long a tuple can sit in a pending batch:
//
//   - punctuation: a batch is flushed the moment an ETS (or EOS) is emitted
//     into it — a bound that waits is a bound that lies, and the Figure-7
//     on-demand latency result depends on punctuation arriving immediately;
//   - demand: a demand signal from downstream flushes pending output before
//     any ETS machinery runs — the tuples downstream idle-waits for may
//     already be here;
//   - idle: a node flushes everything pending before it blocks, so batches
//     never outlive their producer's attention;
//   - delay: while a node stays busy, batches older than maxBatchDelay are
//     flushed so continuous low-yield operators still bound latency.
//
// # Ingest
//
// Producers do not send to a source over a channel: each source node has an
// inlet, a mutex-guarded append buffer its goroutine swaps out whole. A
// per-tuple Ingest is then one short critical section, and everything a take
// moves shares one arrival instant, so per-tuple ingest costs about what
// IngestBatch does.
//
// Control follows the tuple into an idle engine. The engine counts the node
// goroutines parked in their idle selects; when an Ingest, IngestBatch or
// CloseStream wakes a source while all of them are parked, the caller yields
// its CPU, so the source and the nodes it readies run at once instead of
// waiting, queued behind a producer that keeps running, for another CPU to
// wake and steal them. Under load some node is always busy and producers
// never yield; yielding on every ring would make a per-tuple producer and a
// busy engine trade one CPU back and forth.
//
// # Bound reads
//
// For an internal-timestamp stream the on-demand ETS is the clock, so a
// round trip for it is waste. A TSM union or join about to idle-wait on an
// input that such a source feeds by a direct arc reads the source's bound on
// its own goroutine and raises its own register with it (readBound), with the
// effects a punctuation consumed there would have: no tuple, message or wake. It does so only while the source is parked (a run
// lock its goroutine lets go of only in its idle select, taken with TryLock),
// holds nothing, has nothing in flight on the arc (tuples flushed equal
// tuples received) and has an empty inlet. The read is recorded as the
// source's ETS would be, capped below an armed checkpoint cut, and no later
// take is stamped below it. Every other case — external and latent sources,
// chains through other operators, splitters, links — falls back to demand.
package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/tuple"
)

// DefaultBatchSize is the per-arc batch capacity used when Options.BatchSize
// is zero.
const DefaultBatchSize = 64

// maxBatchDelay bounds how long a continuously-busy node may hold a partial
// batch. Idle nodes always flush before blocking, so the bound only matters
// under sustained load.
const maxBatchDelay = 500 * time.Microsecond

// demandRetry is how long an idle-waiting node waits on a demand it sent
// before sending it again: a source declines a demand its clock cannot yet
// answer.
const demandRetry = 200 * time.Microsecond

// channelDepth is each non-source node's inbox capacity in batches: what a
// consumer a scheduling quantum behind can absorb before upstream sends block.
const channelDepth = 256

// inletCap is a source inlet's capacity in tuples: how far producers may run
// ahead of the source goroutine before Ingest waits. Big enough that one
// take amortizes the source's wake-up and clock read over thousands of
// per-tuple Ingest calls; under backpressure it adds to MaxQueueLen's bound
// at a source.
const inletCap = 4096

// Options configures a runtime engine.
type Options struct {
	// OnDemandETS enables demand-driven ETS generation at sources.
	OnDemandETS bool
	// BatchSize caps the tuples accumulated per output arc before the
	// batch is sent downstream (default DefaultBatchSize). 1 restores
	// per-tuple sends — the unbatched baseline.
	BatchSize int
	// Shards, when ≥ 2, applies the partition rewrite before the graph is
	// built: every partitionable operator (ops.Partitionable — hash/equi
	// joins, grouped aggregates, TSM unions) is replicated into Shards
	// hash-partitioned replicas behind a splitter per input and a
	// min-watermark merge, each replica running on its own goroutine with
	// its own state slice and pending batches.
	Shards int
	// Now supplies the clock; defaults to wall time in µs since engine
	// start.
	Now func() tuple.Time
	// Metrics, when non-nil, is the registry the engine's per-node
	// instruments are registered into at build time; nil gives the engine
	// its own registry (reachable via Engine.Registry). Sharing one
	// registry across engines gives a single scrape surface.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives the engine's structured events
	// (idle-waiting transitions, on-demand ETS, demand signals, watermark
	// advances, batch flushes). nil disables tracing at the cost of one
	// pointer check per event site.
	Trace *metrics.Tracer
	// Spans, when non-nil, collects punctuation-propagation spans: every
	// punctuation generated inside the engine (on-demand ETS, forced ETS)
	// or injected with a pre-assigned trace ID (a networked client)
	// records gen/enqueue/dequeue/apply/sink events so its source→sink
	// journey can be reconstructed (obs.Collector.Timelines). Recording
	// happens only on punctuation paths — never per data tuple — so the
	// cost is a few events per ETS; nil disables collection at one
	// pointer check per punctuation.
	Spans *obs.Collector

	// MaxRestarts caps how many times a panicked node goroutine is
	// restarted by its supervisor before the engine fails cleanly
	// (Engine.Err / an errored Wait). 0 means DefaultMaxRestarts; a
	// negative value disables restarts — the first panic fails the engine.
	MaxRestarts int
	// SourceTimeout, when > 0, arms the source-liveness watchdog: a
	// source silent for this long while some operator idle-waits gets a
	// skew-bounded ETS forced into it (at most one per timeout window),
	// so a dead external feed cannot stall IWP operators forever.
	SourceTimeout time.Duration
	// SourceDeadAfter, when > 0, is the second watchdog threshold: a
	// source silent this long is declared dead and its stream closed
	// (EOS downstream) so watermarks keep advancing. If tuples reappear
	// the source revives; its tuples ride the relaxed-more / late-drop
	// paths and are counted as late.
	SourceDeadAfter time.Duration
	// MaxQueueLen, when > 0, bounds each input queue's buffered *data*
	// tuples. The default policy is backpressure: a node over its bound
	// stops draining its inbox channel, the channel fills, and upstream
	// emit blocks; a source over its bound stops taking from its inlet,
	// which fills to inletCap tuples, and Ingest blocks. With Shed, the node
	// instead drops its oldest buffered data tuples (punctuation is never
	// shed) and counts them.
	MaxQueueLen int
	// Shed switches the MaxQueueLen policy from backpressure to
	// drop-oldest load shedding for this graph.
	Shed bool
	// Fault, when non-nil, is the chaos injector probed on the hot path
	// (panic-at-node at the top of each scheduling iteration, tuple-drop
	// at source ingest). nil costs one pointer check per iteration.
	Fault *fault.Injector
}

// Reconfig is one punctuation-aligned reconfiguration action. The controller
// publishes it with Engine.Reconfigure; the node's own goroutine applies it
// at the next boundary where the node is quiescent — its last emission was a
// punctuation and nothing is pending on its out arcs — so a reconfiguration
// can never land between a batch and the punctuation that bounds it.
type Reconfig struct {
	// BatchSize, when > 0, becomes the node's per-arc batch capacity.
	BatchSize int
}

// DefaultMaxRestarts is the per-node restart budget when Options.MaxRestarts
// is zero.
const DefaultMaxRestarts = 8

// restartBackoff is the base supervisor backoff, doubled per consecutive
// restart of the same node (capped at 256× the base).
const restartBackoff = time.Millisecond

// Engine runs one query graph concurrently.
type Engine struct {
	g    *graph.Graph
	opts Options
	now  func() tuple.Time
	plan *partition.Plan

	batchSize int
	maxDelay  time.Duration // maxBatchDelay; a field so package tests can change it before Start
	pool      *tuple.BatchPool

	nodes    []*node
	srcNode  map[*ops.Source]*node
	srcNodes []*node // nodes wrapping a source, watchdog iteration order
	wg       sync.WaitGroup
	started  bool
	stop     chan struct{}
	stopOnce sync.Once
	mu       sync.Mutex

	// Supervision / fault tolerance.
	maxRestarts int
	backoff     time.Duration // restartBackoff; a field for the same reason as maxDelay
	maxQueue    int
	shed        bool
	fault       *fault.Injector
	errMu       sync.Mutex
	err         error
	activeNodes atomic.Int64
	// parked counts node goroutines blocked in runNode's idle selects; when
	// it equals len(nodes) the engine is idle and a producer that rings a
	// source's bell hands it the CPU (handOff).
	parked atomic.Int64

	etsGenerated atomic.Uint64
	boundReads   atomic.Uint64
	batchesSent  atomic.Uint64
	tuplesSent   atomic.Uint64
	forcedETS    atomic.Uint64
	tuplesShed   atomic.Uint64
	lateTuples   atomic.Uint64
	deadSources  atomic.Int64

	reg     *metrics.Registry
	trace   *metrics.Tracer
	spans   *obs.Collector
	startTs atomic.Int64 // engine clock at Start, µs; -1 before

	// Checkpointing (see ckpt.go). ckptMu serializes Checkpoint calls;
	// ckptCur is the in-flight collection (nil when none) that node
	// goroutines report into from their barrier callbacks.
	ckptMu     sync.Mutex
	ckptCur    atomic.Pointer[ckptCollect]
	ckptTotal  atomic.Uint64
	ckptFailed atomic.Uint64
	ckptBytes  atomic.Uint64
	ckptLastUs atomic.Int64 // engine clock when the last checkpoint completed
	ckptDur    *metrics.Reservoir
	// cutAt places a checkpoint's cut above the sources' observed maximum
	// (ops.FenceAt); a field so package tests can place one behind a source.
	cutAt func(max tuple.Time) tuple.Time
}

// portBatch is one arc delivery: a pooled batch whose slice the receiver
// returns to the engine's BatchPool.
type portBatch struct {
	port  int
	batch []*tuple.Tuple
}

// inlet is a source node's ingest buffer. Producers append under mu; the
// source goroutine swaps the whole buffer out in one take. Ingest,
// IngestBatch and CloseStream all append here in call order, so a source has
// one FIFO.
//
// mu also orders a checkpoint's observation of the source (armCut): every
// timestamp the source will emit is recorded in hi, under mu, before the
// source emits it — an external tuple's as it is appended, an internal
// take's stamp as it is taken, an ETS or a bound read as it is made, a cut's
// T as it is armed — so a checkpoint holding every mu sees a maximum nothing
// the source emits before it sees the cut exceeds.
type inlet struct {
	mu  sync.Mutex
	buf []*tuple.Tuple
	// hi is the highest timestamp recorded so far (EOS aside); external
	// reports whether appended data keeps its own timestamps (punctuation
	// always does).
	hi       tuple.Time
	external bool
	// floor is the highest ETS promised for an internal stream, by the
	// source or by a consumer's bound read (readBound). No take stamps below
	// it: the clock a bound read promised is read on another goroutine.
	floor tuple.Time
	// room, non-nil while a producer waits for room, is closed by the next
	// take to wake every waiter at once.
	room chan struct{}
	// bell is rung when buf turns non-empty. Capacity 1: a ring made while
	// the source is busy waits for its next idle select.
	bell chan struct{}
	// spare is the emptied buffer the next take swaps in, so takes alternate
	// two buffers and allocate nothing. Source-goroutine owned.
	spare []*tuple.Tuple
}

// put appends ts as one contiguous run. While the inlet holds tuples and ts
// would take it past inletCap it waits for a take — a run longer than
// inletCap is admitted whole into an empty inlet — unless stop closes first,
// in which case ts is dropped rather than wedging the producer. It reports
// whether it rang the bell.
func (in *inlet) put(stop <-chan struct{}, ts ...*tuple.Tuple) bool {
	in.mu.Lock()
	for len(in.buf) > 0 && len(in.buf)+len(ts) > inletCap {
		if in.room == nil {
			in.room = make(chan struct{})
		}
		room := in.room
		in.mu.Unlock()
		select {
		case <-room:
		case <-stop:
			return false
		}
		in.mu.Lock()
	}
	return in.add(ts)
}

// add appends ts, releases mu (which the caller holds), and rings the bell
// if the buffer was empty. It reports whether the ring went in: a bell that
// was already rung wakes no one new.
func (in *inlet) add(ts []*tuple.Tuple) bool {
	for _, t := range ts {
		if (in.external || t.IsPunct()) && t.Ts > in.hi && t.Ts != tuple.MaxTime {
			in.hi = t.Ts
		}
	}
	ring := len(in.buf) == 0
	in.buf = append(in.buf, ts...)
	in.mu.Unlock()
	if ring {
		select {
		case in.bell <- struct{}{}:
			return true
		default: // already rung
		}
	}
	return false
}

// take swaps out everything appended so far and wakes producers waiting for
// room. stamp is the clock an internal stream stamps the take with (MinTime
// for other kinds); take raises it to the inlet's floor, records it if the
// take is non-empty, and returns it. The caller hands the slice back through
// recycle once delivered.
func (in *inlet) take(stamp tuple.Time) ([]*tuple.Tuple, tuple.Time) {
	next := in.spare
	in.spare = nil
	in.mu.Lock()
	b := in.buf
	in.buf = next
	stamp = max(stamp, in.floor) // floor stays MinTime but for internal streams
	if len(b) > 0 && stamp > in.hi {
		in.hi = stamp
	}
	if in.room != nil {
		close(in.room)
		in.room = nil
	}
	in.mu.Unlock()
	return b, stamp
}

// recycle keeps a delivered take as the next take's buffer, minus its tuple
// references. An outsized IngestBatch's buffer is let go instead.
func (in *inlet) recycle(b []*tuple.Tuple) {
	clear(b)
	if cap(b) <= 2*inletCap {
		in.spare = b[:0]
	}
}

// len reports the tuples waiting for the next take.
// promise records ts as a bound issued for the stream, by its source or by
// a consumer's bound read: the highest timestamp recorded and, for an
// internal stream, the floor no take stamps below. The caller holds in.mu.
func (in *inlet) promise(ts tuple.Time, internal bool) {
	in.hi = max(in.hi, ts)
	if internal {
		in.floor = max(in.floor, ts)
	}
}

func (in *inlet) len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.buf)
}

// iwpOperator is an operator built on the IWP core (ops.Union,
// ops.WindowJoin): the hooks the engine drives its timestamp management
// through.
type iwpOperator interface {
	ops.Operator
	Mode() ops.IWPMode
	// RaiseBound raises input in's TSM register to ts — a bound the engine
	// read from that input's producer (readBound) — as a punctuation at ts
	// consumed there would, and reports whether the register advanced.
	RaiseBound(ctx *ops.Ctx, in int, ts tuple.Time) bool
	// EndOfStream emits what the operator owes downstream once every input
	// has ended and drained: EOS, if its mode swallowed the inputs' EOS.
	EndOfStream(ctx *ops.Ctx)
}

var (
	_ iwpOperator = (*ops.Union)(nil)
	_ iwpOperator = (*ops.WindowJoin)(nil)
)

// boundArc names the internal source feeding a port by a direct arc, and the
// arc's index among the source's out arcs.
type boundArc struct {
	src *node
	arc int
}

type node struct {
	gn    *graph.Node
	name  string
	obs   *nodeObs
	in    chan portBatch // fan-in of all input arcs; nil for sources
	inlet *inlet         // producers' ingest buffer; non-nil for sources only
	dem   chan struct{}  // demand signals from downstream
	ctl   chan ctlKind   // watchdog control signals; non-nil for sources only

	outs     []*node // per out-arc consumer
	outPorts []int

	eosSeen []bool
	ins     []*buffer.Queue

	// Pending output batches, one per out arc. Owned exclusively by the
	// node's goroutine.
	pend      [][]*tuple.Tuple
	pendCount int
	pendSince time.Time // when pendCount last left zero

	// batchSize is the node's per-arc batch capacity, initialized from the
	// engine-wide option and re-written only through the reconfiguration
	// protocol. Atomic because scrapers (gauges, the controller) read it
	// while the owning goroutine applies updates.
	batchSize atomic.Int64

	// reconf is the pending reconfiguration (last writer wins; the
	// controller coalesces). The node goroutine consumes it only at a
	// punctuation boundary with sincePunct == 0 and pendCount == 0.
	reconf atomic.Pointer[Reconfig]
	// lastInTrace is the trace ID of the last traced punctuation delivered
	// to this node; punctuation the operator emits with no trace of its
	// own inherits it (best-effort causal attribution — exact whenever the
	// operator reacts to one bound at a time, which the punct-flush rule
	// makes the overwhelmingly common case). Goroutine-owned.
	lastInTrace uint64
	// idleBlockedOn is the input port charged for the open idle spell (-1
	// when none); set by enterIdle, consumed by exitIdle. Goroutine-owned.
	idleBlockedOn int
	// punctBoundary is set by notePunctOut and cleared before each Exec
	// step: "this step emitted a punctuation". sincePunct counts data
	// tuples emitted since the last punctuation — zero means every emitted
	// tuple is bounded and the node is quiescent. Both goroutine-owned.
	punctBoundary bool
	sincePunct    int

	// srcDone records that a source node has ingested EOS; goroutine-owned
	// (it lives on the node, not the goroutine stack, so a supervised
	// restart does not forget it).
	srcDone bool
	// restarts is the supervisor's consumed-budget counter (supervisor
	// goroutine only).
	restarts int

	// Bound reads (readBound). An internal source's goroutine holds run
	// except while parked in its idle select, so whoever holds it sees the
	// source still. Consumers only TryLock it, so the source may hold it
	// across a blocking send with nobody waiting on it. sent counts the
	// tuples the source flushed on each out arc, under run. A TSM
	// operator's reads[port] is the internal source feeding that port by a
	// direct arc (src nil for any other port), recv[port] the tuples
	// received there; both nil when no port qualifies. iwp is the node's
	// IWP operator, nil for any other.
	run      sync.Mutex
	internal bool // the node is an internal-timestamp source: it takes run
	sent     []uint64
	reads    []boundArc
	recv     []uint64
	iwp      iwpOperator

	// Watchdog state: lastIn is the engine clock (µs) of the last arrival
	// at a source node; lastForce the clock of the last forced ETS; dead
	// whether the watchdog has declared the source dead; done whether the
	// node goroutine has exited for good.
	lastIn    atomic.Int64
	lastForce atomic.Int64
	dead      atomic.Bool
	done      atomic.Bool
}

// New builds a runtime engine over a validated graph. With Options.Shards
// ≥ 2 the graph is first expanded by the partition rewrite; the input graph
// is consumed either way.
func New(g *graph.Graph, opts Options) (*Engine, error) {
	g, plan := partition.Rewrite(g, opts.Shards)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		g: g, opts: opts, plan: plan, stop: make(chan struct{}),
		maxDelay: maxBatchDelay, backoff: restartBackoff,
		cutAt: func(max tuple.Time) tuple.Time { return ops.FenceAt(max, 0) },
	}
	e.reg = opts.Metrics
	if e.reg == nil {
		e.reg = metrics.NewRegistry()
	}
	e.trace = opts.Trace
	e.spans = opts.Spans
	e.startTs.Store(-1)
	e.maxRestarts = opts.MaxRestarts
	if e.maxRestarts == 0 {
		e.maxRestarts = DefaultMaxRestarts
	} else if e.maxRestarts < 0 {
		e.maxRestarts = 0 // no restarts: the first panic fails the engine
	}
	e.maxQueue = opts.MaxQueueLen
	e.shed = opts.Shed
	e.fault = opts.Fault
	e.batchSize = opts.BatchSize
	if e.batchSize <= 0 {
		e.batchSize = DefaultBatchSize
	}
	e.pool = tuple.NewBatchPool(e.batchSize)
	if opts.Now != nil {
		e.now = opts.Now
	} else {
		start := time.Now()
		e.now = func() tuple.Time { return tuple.FromDuration(time.Since(start)) }
	}
	e.nodes = make([]*node, g.Len())
	e.srcNode = make(map[*ops.Source]*node)
	for _, gn := range g.Nodes() {
		n := &node{
			gn:      gn,
			name:    gn.Op.Name(),
			dem:     make(chan struct{}, 1),
			eosSeen: make([]bool, gn.Op.NumInputs()),
		}
		n.idleBlockedOn = -1
		n.ins = make([]*buffer.Queue, gn.Op.NumInputs())
		for i := range n.ins {
			n.ins[i] = buffer.New(fmt.Sprintf("%s.in%d", gn.Op.Name(), i))
		}
		n.lastIn.Store(-1)
		n.batchSize.Store(int64(e.batchSize))
		e.nodes[gn.ID] = n
		n.iwp, _ = gn.Op.(iwpOperator)
		if s := gn.Source(); s != nil {
			n.inlet = &inlet{bell: make(chan struct{}, 1), hi: tuple.MinTime, floor: tuple.MinTime, external: s.TSKind() == tuple.External}
			n.internal = s.TSKind() == tuple.Internal
			n.ctl = make(chan ctlKind, 4)
			e.srcNode[s] = n
			e.srcNodes = append(e.srcNodes, n)
		} else {
			n.in = make(chan portBatch, channelDepth)
		}
	}
	for _, gn := range g.Nodes() {
		n := e.nodes[gn.ID]
		for _, a := range gn.Out {
			n.outs = append(n.outs, e.nodes[a.To])
			n.outPorts = append(n.outPorts, a.Port)
		}
		n.pend = make([][]*tuple.Tuple, len(n.outs))
		if n.internal {
			n.sent = make([]uint64, len(n.outs))
		}
	}
	for _, n := range e.nodes {
		if n.iwp == nil || n.iwp.Mode() != ops.TSM {
			continue
		}
		for port, p := range n.gn.Preds {
			pn := e.nodes[p]
			if !pn.internal {
				continue
			}
			for i, c := range pn.outs {
				if c == n && pn.outPorts[i] == port {
					if n.reads == nil {
						n.reads = make([]boundArc, len(n.gn.Preds))
						n.recv = make([]uint64, len(n.gn.Preds))
					}
					n.reads[port] = boundArc{src: pn, arc: i}
				}
			}
		}
	}
	e.instrument()
	return e, nil
}

// ETSGenerated reports the number of demand-driven ETS punctuations emitted.
func (e *Engine) ETSGenerated() uint64 { return e.etsGenerated.Load() }

// BoundReads reports the number of bounds blocked operators read from idle
// internal-timestamp sources instead of an ETS punctuation (readBound).
func (e *Engine) BoundReads() uint64 { return e.boundReads.Load() }

// BatchesSent reports the number of arc deliveries (batch sends) performed;
// TuplesSent / BatchesSent is the achieved batching factor.
func (e *Engine) BatchesSent() uint64 { return e.batchesSent.Load() }

// TuplesSent reports the number of tuples moved across arcs.
func (e *Engine) TuplesSent() uint64 { return e.tuplesSent.Load() }

// ShardPlan reports how the partition rewrite expanded the graph, or nil
// when Options.Shards < 2 or nothing was partitionable.
func (e *Engine) ShardPlan() *partition.Plan { return e.plan }

// ShardTuples rolls up the per-shard routed-tuple counters of every splitter
// in the plan into one vector (index = shard), the engine-level view of
// partition balance. It returns nil for an unsharded engine and may be read
// while the engine runs.
func (e *Engine) ShardTuples() []uint64 {
	if e.plan == nil {
		return nil
	}
	var dst []uint64
	for _, sh := range e.plan.Ops {
		for _, id := range sh.Splitters {
			if s, ok := e.g.Node(id).Op.(*ops.Split); ok {
				dst = s.Routed().AddTo(dst)
			}
		}
	}
	return dst
}

// Start launches one supervised goroutine per node, plus the source-liveness
// watchdog when Options.SourceTimeout is set.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	now := int64(e.now())
	e.startTs.Store(now)
	for _, n := range e.srcNodes {
		n.lastIn.Store(now) // a source is "live" until it outlasts its deadline
		n.lastForce.Store(now)
	}
	e.activeNodes.Store(int64(len(e.nodes)))
	for _, n := range e.nodes {
		e.wg.Add(1)
		go e.supervise(n)
	}
	if e.opts.SourceTimeout > 0 && len(e.srcNodes) > 0 {
		e.wg.Add(1)
		go e.watchdog()
	}
}

// Ingest delivers a raw tuple to the given source node. Timestamping
// happens inside the source's goroutine (serialized with on-demand ETS
// generation): stamping at the call site would race with ETS generation —
// an in-flight tuple stamped before an ETS but delivered after it would
// break the arc's timestamp order. Safe for concurrent use.
// It blocks while the source's inlet is full (backpressure); if the engine
// stops or fails while blocked, the tuple is dropped instead of wedging the
// producer. When the tuple wakes an engine whose every node was idle, the
// caller gives up its CPU while the engine runs what it just handed in (see
// handOff).
func (e *Engine) Ingest(src *ops.Source, raw *tuple.Tuple) {
	n := e.srcNode[src]
	if n == nil {
		panic("runtime: Ingest on a source not in this graph")
	}
	if n.inlet.put(e.stop, raw) {
		e.handOff()
	}
}

// IngestBatch appends a batch of raw tuples to the given source's inlet as
// one contiguous run, in one critical section. It waits like Ingest, for
// room for the whole batch; a batch longer than the inlet's capacity is
// admitted whole once the inlet is empty. Like Ingest, it may give up the
// caller's CPU while an idle engine runs the batch. The caller keeps
// ownership of raws (but not of the tuples, which now belong to the stream).
// Safe for concurrent use.
func (e *Engine) IngestBatch(src *ops.Source, raws []*tuple.Tuple) {
	if len(raws) == 0 {
		return
	}
	n := e.srcNode[src]
	if n == nil {
		panic("runtime: IngestBatch on a source not in this graph")
	}
	if n.inlet.put(e.stop, raws...) {
		e.handOff()
	}
}

// CloseStream sends end-of-stream into the named source; once every source
// is closed, the graph drains and Wait returns. Like Ingest, it may give up
// the caller's CPU while an idle engine runs the EOS through.
func (e *Engine) CloseStream(src *ops.Source) {
	e.Ingest(src, tuple.EOS())
}

// handOff follows a ring that went in. If every node is parked, the woken
// source is all the work the engine has, so the caller yields and the
// source, and the nodes it readies in turn, run on this CPU at once (see
// the package doc's Ingest section). Under load some node is busy and nobody
// yields. A stale count moves latency, never output.
func (e *Engine) handOff() {
	if e.parked.Load() == int64(len(e.nodes)) {
		goruntime.Gosched()
	}
}

// drainInlet moves everything producers have appended to a source's inlet
// into the source, in append order. The take shares one arrival instant —
// one clock read and one liveness note however many tuples it moves. Unlike
// an arc batch, a take can hold punctuation anywhere (a producer's slice, or
// per-tuple calls interleaving data and bounds), so every punctuation in it
// is accounted, not only a trailing one.
func (e *Engine) drainInlet(n *node, src *ops.Source) {
	now := e.now()
	stamp := tuple.MinTime
	if src.TSKind() == tuple.Internal {
		stamp = now
	}
	b, stamp := n.inlet.take(stamp)
	if len(b) > 0 {
		n.obs.tuplesIn.Add(uint64(len(b)))
		e.noteSourceActivity(n, now)
		for _, t := range b {
			if t.IsPunct() {
				e.notePunctArrival(n, 0, t.Ts, t.Trace)
				if t.IsEOS() {
					n.srcDone = true
				}
				src.Offer(t)
			} else if !e.fault.DropTuple(n.name) { // chaos: lost before entering the stream
				// An internal take's stamp may sit at the inlet's floor,
				// above now; other kinds' stamp is MinTime.
				src.Ingest(t, max(now, stamp))
			}
		}
		e.shedOverflow(n)
	}
	n.inlet.recycle(b)
}

// Wait blocks until every node goroutine has exited (all streams closed and
// drained, or the engine stopped/failed). It returns Err(): nil for a clean
// drain or user Stop, the failure for an engine that exceeded a node's
// restart budget.
func (e *Engine) Wait() error {
	e.wg.Wait()
	return e.Err()
}

// Err reports the failure that stopped the engine, or nil while it is
// healthy (including after a clean drain or a user Stop). Safe to call at
// any time.
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// fail records the first fatal error and stops the engine. Later calls keep
// the original cause.
func (e *Engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.Stop()
}

// Stop terminates all node goroutines without draining. Prefer CloseStream
// on every source followed by Wait for a clean shutdown; Stop is for
// abandoning a continuous query. It is idempotent and safe to call from any
// number of goroutines, concurrently with Wait and CloseStream.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
}

// flushArc sends out arc i's pending batch downstream.
func (e *Engine) flushArc(n *node, i int) {
	b := n.pend[i]
	if len(b) == 0 {
		return
	}
	n.pend[i] = nil
	n.pendCount -= len(b)
	if n.sent != nil {
		n.sent[i] += uint64(len(b))
	}
	e.batchesSent.Add(1)
	e.tuplesSent.Add(uint64(len(b)))
	n.obs.batchesOut.Inc()
	n.obs.tuplesOut.Add(uint64(len(b)))
	if e.trace != nil {
		e.trace.Emit(metrics.EvBatchFlush, n.name, e.now(), int64(len(b)))
	}
	select {
	case n.outs[i].in <- portBatch{port: n.outPorts[i], batch: b}:
	case <-e.stop:
		// The engine is stopping; the consumer may already have exited, so
		// a plain send could wedge this node forever. Abandon the batch.
		e.pool.Put(b[:0])
	}
}

// flushPending sends every non-empty pending batch downstream.
func (e *Engine) flushPending(n *node) {
	if n.pendCount == 0 {
		return
	}
	for i := range n.pend {
		e.flushArc(n, i)
	}
}

// emit appends t to every out arc's pending batch, applying the flush rules:
// punctuation flushes immediately, full batches flush their arc.
func (e *Engine) emit(n *node, t *tuple.Tuple) {
	if len(n.outs) == 0 {
		return
	}
	if n.pendCount == 0 {
		n.pendSince = time.Now()
	}
	punct := t.IsPunct()
	if punct {
		e.stampPunctTrace(n, t)
	}
	bs := int(n.batchSize.Load())
	for i := range n.outs {
		b := n.pend[i]
		if b == nil {
			b = e.pool.Get()
		}
		b = append(b, t)
		n.pend[i] = b
		n.pendCount++
		if punct {
			if e.spans != nil && t.Trace != 0 {
				e.spans.Record(t.Trace, n.outs[i].name, obs.PhaseEnqueue, t.Ts)
			}
		} else if len(b) >= bs {
			e.flushArc(n, i)
		}
	}
	if punct {
		e.notePunctOut(n, t)
		// An ETS that waits in a batch delays exactly the reactivation
		// it exists to provide (and EOS gates termination): flush now.
		e.flushPending(n)
	} else {
		n.sincePunct++
	}
}

// emitTo appends t to out arc i's pending batch only — the routed-emit path
// splitters use. The punctuation flush rule applies per arc, preserving the
// invariant that a punct (EOS included) is always its batch's last element.
func (e *Engine) emitTo(n *node, i int, t *tuple.Tuple) {
	if n.pendCount == 0 {
		n.pendSince = time.Now()
	}
	b := n.pend[i]
	if b == nil {
		b = e.pool.Get()
	}
	b = append(b, t)
	n.pend[i] = b
	n.pendCount++
	if t.IsPunct() {
		e.stampPunctTrace(n, t)
		e.notePunctOut(n, t)
		if e.spans != nil && t.Trace != 0 {
			e.spans.Record(t.Trace, n.outs[i].name, obs.PhaseEnqueue, t.Ts)
		}
		e.flushArc(n, i)
	} else {
		n.sincePunct++
		if len(b) >= int(n.batchSize.Load()) {
			e.flushArc(n, i)
		}
	}
}

// stepClock is a node's ops.Ctx.Now. It reads the engine clock lazily, at
// most once per wake of the node loop and once per `every` operator steps,
// and returns that reading in between: a sink delivering a batch, or a
// latent join stamping one, shares one instant the way a source's take
// does, instead of reading the clock per tuple. A reading is never ahead of
// the engine clock, and a monotone engine clock gives monotone readings.
// Goroutine-owned.
type stepClock struct {
	now   func() tuple.Time
	every int
	t     tuple.Time
	left  int // steps the reading in t stays valid for; 0 once expired
}

func (c *stepClock) read() tuple.Time {
	if c.left == 0 {
		c.t, c.left = c.now(), c.every
	}
	return c.t
}

// step counts one operator step against the reading.
func (c *stepClock) step() {
	if c.left > 0 {
		c.left--
	}
}

// expire makes the next read take a fresh reading: the node woke up.
func (c *stepClock) expire() { c.left = 0 }

// deliver moves one arc delivery into n's input queues: the node's own
// goroutine, after taking it from the inbox channel.
func (e *Engine) deliver(n *node, pb portBatch) {
	n.obs.tuplesIn.Add(uint64(len(pb.batch)))
	if n.reads != nil && n.reads[pb.port].src != nil {
		n.recv[pb.port] += uint64(len(pb.batch))
	}
	// Late accounting must use the arc's watermark as of *before* this
	// delivery: a batch's own trailing punctuation bounds future
	// batches, not the data travelling ahead of it in the same batch.
	// The arc's, not the node's: another input's bound may run ahead
	// without any tuple on this one being late.
	wmPre := n.obs.arcWm[pb.port].Load()
	// Punctuation flushes its batch the moment it is emitted, so a punct
	// — EOS included — can only be a batch's last element: one check
	// accounts the whole batch. (Not so for a source's inlet take.)
	last := pb.batch[len(pb.batch)-1]
	if last.IsPunct() {
		e.notePunctArrival(n, pb.port, last.Ts, last.Trace)
	}
	if wmPre > int64(tuple.MinTime) {
		late := 0
		for _, t := range pb.batch {
			if !t.IsPunct() && int64(t.Ts) < wmPre {
				late++
			}
		}
		if late > 0 {
			e.countLate(n, late)
		}
	}
	n.ins[pb.port].PushAll(pb.batch)
	if last.IsEOS() {
		n.eosSeen[pb.port] = true
	}
	e.pool.Put(pb.batch)
	e.shedOverflow(n)
}

// runNode is the per-operator scheduling loop. It is (re)entered by the
// node's supervisor: a panic anywhere inside is recovered there and the loop
// restarted, so all state that must survive a restart lives on the node (or
// the engine), never on this stack.
func (e *Engine) runNode(n *node) {
	op := n.gn.Op
	src := n.gn.Source()

	clk := &stepClock{now: e.now, every: e.batchSize}
	ctx := &ops.Ctx{
		Ins:    n.ins,
		Emit:   func(t *tuple.Tuple) { e.emit(n, t) },
		EmitTo: func(i int, t *tuple.Tuple) { e.emitTo(n, i, t) },
		Now:    clk.read,
	}
	ctx.OnBarrier = func(id uint64, bound tuple.Time) { e.onBarrier(n, id, bound) }
	var bell chan struct{} // nil for interior nodes: that select case never fires
	if src != nil {
		// Source nodes pull from their inbox, which drainInlet fills.
		ctx.Ins = nil
		bell = n.inlet.bell
	}

	allEOS := func() bool {
		if src != nil {
			return false // sources end via their own EOS ingest
		}
		for _, s := range n.eosSeen {
			if !s {
				return false
			}
		}
		return true
	}
	drained := func() bool {
		if src != nil {
			return false
		}
		for _, q := range n.ins {
			if !q.Empty() {
				return false
			}
		}
		return true
	}
	retry := time.NewTimer(demandRetry) // the demand-retry wait below
	defer retry.Stop()
	// An internal source runs holding its run lock and lets go of it only
	// while parked (see node.run); every return and panic holds it.
	n.freeze()
	defer n.thaw()

	for {
		// Chaos probe: a clean failure point where the operator's state is
		// consistent, so injected panics exercise the supervisor.
		e.fault.MaybePanic(n.name)
		clk.expire()
		// Drain pending input without blocking: a source takes its whole
		// inlet, an interior node empties its channel. With a queue bound
		// and the backpressure policy, a node over its bound stops draining
		// — the channel or inlet fills and upstream sends or Ingest block.
		if src != nil {
			if e.canDrain(n) {
				e.drainInlet(n, src)
			}
		} else {
			for e.canDrain(n) {
				select {
				case pb := <-n.in:
					e.deliver(n, pb)
					continue
				default:
				}
				break
			}
		}
		// Queues are at their fullest right after the drain: publish depth
		// and high-water mark (owner-goroutine write, scraper-safe read).
		e.publishQueues(n)
		// Run the operator while it can make progress.
		ran := false
		for op.More(ctx) {
			n.punctBoundary = false
			op.Exec(ctx)
			clk.step()
			ran = true
			// Apply-at-punctuation: this step ended on an emitted bound,
			// everything emitted is flushed and bounded — a quiescent
			// point where reconfiguration is indistinguishable from
			// having been the configuration all along.
			if n.punctBoundary && n.sincePunct == 0 && n.pendCount == 0 {
				e.maybeApplyReconf(n)
			}
		}
		if ran {
			// Progress ends an idle-waiting spell (reactivation, §4).
			e.exitIdle(n)
			// Still busy: only stale batches flush (the delay rule);
			// full batches and punctuation already flushed inside emit.
			if n.pendCount > 0 && time.Since(n.pendSince) >= e.maxDelay {
				e.flushPending(n)
			}
			continue
		}
		// Going idle: nothing pending may outlive the producer's
		// attention (the idle rule), and the exit paths below rely on
		// downstream having seen everything emitted so far.
		e.flushPending(n)
		// Exit conditions: source got EOS and drained its inbox (EOS
		// itself was forwarded by Source.Exec); non-source saw EOS on
		// every input and drained.
		if src != nil && n.srcDone && src.Inbox().Empty() {
			return
		}
		if allEOS() && drained() {
			e.exitIdle(n)
			// Stateless operators forwarded EOS as ordinary punctuation;
			// an IWP operator emits what its mode owes downstream.
			if n.iwp != nil && len(n.outs) > 0 {
				n.iwp.EndOfStream(ctx)
			}
			return
		}
		// About to idle-wait on an input an idle internal source feeds
		// directly: read its bound instead of asking for it.
		if n.reads != nil && e.opts.OnDemandETS && e.hasData(n) && e.readBounds(n, ctx) {
			continue
		}
		// Idle: if we hold data but cannot run, signal demand upstream
		// toward the blocking input (the concurrent analogue of the
		// Backtrack rule) and wait with a retry timeout — the source
		// may decline a demand whose clock has not advanced yet, and
		// the hint must then be re-issued.
		// About to block while holding data: that is the paper's
		// idle-waiting state — open a spell (a no-op if one is open; demand
		// retries extend the same spell until the operator runs again).
		e.enterIdle(n, ctx)
		demanding := false
		if e.opts.OnDemandETS && src == nil && e.hasData(n) {
			e.demandUpstream(n, ctx)
			demanding = true
		}
		if demanding {
			// One timer per loop, re-armed per wait: time.After would
			// allocate one each time. Stop and drain it first: a fire left
			// over from an earlier wait would cut this one short and
			// re-send the demand at once.
			if !retry.Stop() {
				select {
				case <-retry.C:
				default:
				}
			}
			retry.Reset(demandRetry)
			e.parked.Add(1)
			select {
			case pb := <-n.in:
				e.parked.Add(-1)
				e.deliver(n, pb)
			case <-n.dem:
				e.parked.Add(-1)
				e.handleDemand(n, ctx)
			case k := <-n.ctl:
				e.parked.Add(-1)
				e.handleCtl(n, ctx, k)
			case <-retry.C:
				e.parked.Add(-1)
				// retry the demand on the next iteration
			case <-e.stop:
				e.parked.Add(-1)
				e.exitIdle(n)
				return
			}
			continue
		}
		// Block until input, demand, or a watchdog control signal arrives.
		// (n.in is nil for sources, bell and n.ctl for interior nodes; a
		// nil case never fires.) Both idle selects count the node as parked
		// (handOff), and every way out of them uncounts it first.
		// Only here does an internal source let go of its run lock.
		e.parked.Add(1)
		n.thaw()
		select {
		case pb := <-n.in:
			n.unpark(e)
			e.deliver(n, pb)
		case <-bell:
			n.unpark(e)
			// The drain at the top of the loop takes the inlet.
		case <-n.dem:
			n.unpark(e)
			e.handleDemand(n, ctx)
		case k := <-n.ctl:
			n.unpark(e)
			e.handleCtl(n, ctx, k)
		case <-e.stop:
			n.unpark(e)
			e.exitIdle(n)
			return
		}
	}
}

// freeze takes an internal source's run lock; thaw lets go of it. Both are
// no-ops for every other node (see node.run).
func (n *node) freeze() {
	if n.internal {
		n.run.Lock()
	}
}

func (n *node) thaw() {
	if n.internal {
		n.run.Unlock()
	}
}

// unpark leaves the idle select: the node holds its run lock again and no
// longer counts as parked.
func (n *node) unpark(e *Engine) {
	n.freeze()
	e.parked.Add(-1)
}

// maybeApplyReconf consumes the node's pending reconfiguration, if any.
// Called only from the node's own goroutine at a verified quiescent point
// (last emission was a punctuation, nothing pending).
func (e *Engine) maybeApplyReconf(n *node) {
	rc := n.reconf.Swap(nil)
	if rc == nil {
		return
	}
	if rc.BatchSize > 0 {
		n.batchSize.Store(int64(rc.BatchSize))
	}
	n.obs.retunes.Inc()
	if e.trace != nil {
		e.trace.Emit(metrics.EvRetuneApplied, n.name, e.now(), n.obs.wmOut.Load())
	}
}

// Reconfigure publishes a punctuation-aligned reconfiguration for node id.
// The node's goroutine applies it at its next quiescent boundary; until
// then the previous configuration stays live. A second Reconfigure before
// the first applied replaces it (the controller's newest decision wins).
// Returns false for an unknown node id.
//
// Nodes that never emit punctuation (sinks) never reach a boundary, so a
// reconfiguration stays pending forever — harmless, since a node without
// out-arcs has no batch plane to tune either.
func (e *Engine) Reconfigure(id int, rc Reconfig) bool {
	if id < 0 || id >= len(e.nodes) {
		return false
	}
	e.nodes[id].reconf.Store(&rc)
	return true
}

// NodeBatchSize reports node id's live per-arc batch capacity.
func (e *Engine) NodeBatchSize(id int) int {
	if id < 0 || id >= len(e.nodes) {
		return 0
	}
	return int(e.nodes[id].batchSize.Load())
}

// NumNodes reports the graph's node count (node ids are 0..NumNodes-1).
func (e *Engine) NumNodes() int { return len(e.nodes) }

// NodeName reports node id's operator name ("" for an unknown id).
func (e *Engine) NodeName(id int) string {
	if id < 0 || id >= len(e.nodes) {
		return ""
	}
	return e.nodes[id].name
}

// Now reads the engine's virtual clock (Options.Now, or wall time since
// construction).
func (e *Engine) Now() tuple.Time { return e.now() }

// NodeFanOut reports how many out arcs node id has.
func (e *Engine) NodeFanOut(id int) int {
	if id < 0 || id >= len(e.nodes) {
		return 0
	}
	return len(e.nodes[id].outs)
}

// Tracer exposes the engine's trace ring (nil when tracing is off).
func (e *Engine) Tracer() *metrics.Tracer { return e.trace }

// ShardGroup is one partitioned operator's adaptive surface: the splitters
// feeding its shards (all of which must receive identical retargets to keep
// keys co-located) and the replication factor.
type ShardGroup struct {
	// Name is the original operator's name.
	Name string
	// Shards is the replication factor.
	Shards int
	// Splitters holds the Split instance per input port.
	Splitters []*ops.Split
}

// ShardGroups lists the partitioned operators' splitter groups, or nil for
// an unsharded engine.
func (e *Engine) ShardGroups() []ShardGroup {
	if e.plan == nil {
		return nil
	}
	var out []ShardGroup
	for _, sh := range e.plan.Ops {
		g := ShardGroup{Name: sh.Name, Shards: sh.Shards}
		for _, id := range sh.Splitters {
			if s, ok := e.g.Node(id).Op.(*ops.Split); ok {
				g.Splitters = append(g.Splitters, s)
			}
		}
		if len(g.Splitters) > 0 {
			out = append(out, g)
		}
	}
	return out
}

func (e *Engine) hasData(n *node) bool {
	for _, q := range n.ins {
		if q.DataLen() > 0 {
			return true
		}
	}
	return false
}

// signalDemand delivers a non-blocking demand hint to a node.
func (e *Engine) signalDemand(n *node) {
	select {
	case n.dem <- struct{}{}:
	default: // already signalled; hint coalesces
	}
}

// demandUpstream signals demand toward every predecessor that could be
// withholding the bound this node idle-waits for: the blocking input's
// producer, plus the producer of every other input whose queue is empty. The
// fan-out matters in a partitioned graph — a starving shard's inputs come
// from different splitters, each rooted at a different source, and waking
// only the first would leave the shard's other register stuck until the
// retry timer fires. Over-signalling is safe: a demand is a coalescing hint,
// and a source declines it unless its ETS estimator can actually advance the
// bound.
func (e *Engine) demandUpstream(n *node, ctx *ops.Ctx) {
	if len(n.gn.Preds) == 0 {
		return
	}
	j := n.gn.Op.BlockingInput(ctx)
	if j < 0 {
		j = 0
	}
	n.obs.demandSent.Inc()
	if e.trace != nil {
		e.trace.Emit(metrics.EvDemandSent, n.name, e.now(), int64(j))
	}
	e.signalDemand(e.nodes[n.gn.Preds[j]])
	for i, p := range n.gn.Preds {
		if i != j && n.ins[i].Empty() {
			e.signalDemand(e.nodes[p])
		}
	}
}

// handleDemand reacts to a demand signal. A node holding pending output
// flushes it — the tuples downstream idle-waits for may already be batched
// here (the demand flush rule). Otherwise sources answer with an ETS (if the
// estimator allows) and interior nodes forward the demand upstream along
// their (blocking) input.
func (e *Engine) handleDemand(n *node, ctx *ops.Ctx) {
	n.obs.demandRecv.Inc()
	if n.pendCount > 0 {
		e.flushPending(n)
		if e.hasData(n) || n.gn.Source() != nil {
			return
		}
		// The flushed batches may not contain what downstream starves
		// for — a splitter can hold output for shard A while shard B is
		// the one demanding — and with our own inputs drained nothing
		// else is coming. Keep the demand moving upstream.
	}
	if src := n.gn.Source(); src != nil {
		if !src.Inbox().Empty() {
			return // data is already on the way
		}
		if p := e.sourceETS(n, src); p != nil {
			e.etsGenerated.Add(1)
			if src.TSKind() == tuple.Internal {
				n.obs.etsInternal.Inc()
			} else {
				n.obs.etsExternal.Inc()
			}
			if e.trace != nil {
				e.trace.Emit(metrics.EvETSGen, n.name, p.Ts, 0)
			}
		}
		return
	}
	e.demandUpstream(n, ctx)
}

// sourceETS queues an on-demand ETS at the current clock into an idle
// source, recorded like a take (see inlet), or returns nil when the source
// has no new bound to promise.
func (e *Engine) sourceETS(n *node, src *ops.Source) *tuple.Tuple {
	p, ok := src.OnDemandETS(e.now())
	if !ok {
		return nil
	}
	n.inlet.mu.Lock()
	n.inlet.promise(p.Ts, n.internal)
	n.inlet.mu.Unlock()
	src.Offer(p)
	return p
}

// readBounds is the bound read (DESIGN.md §6). A TSM operator about to
// idle-wait on an input that an internal-timestamp source feeds by a direct
// arc takes the ETS that source would issue on demand and raises its own
// register with it: no tuple, no message, no wake of the source. It follows
// the blocking input from read to read, at most once per input, and reports
// whether the operator can run; when it cannot, the caller falls back to
// demand.
func (e *Engine) readBounds(n *node, ctx *ops.Ctx) bool {
	for range n.reads {
		j := n.iwp.BlockingInput(ctx)
		if j < 0 || !e.readBound(n, ctx, j) {
			return false
		}
		if n.iwp.More(ctx) {
			return true
		}
	}
	return false
}

// readBound reads the bound of the internal source feeding n's input j and
// raises the input's register with it, with the effects of a punctuation
// consumed there (ops' RaiseBound): a join expires the opposite window and
// a merged bound that advanced propagates. It declines unless, with input j
// empty:
//
//  1. the source is still: parked, its run lock free (taken without waiting);
//  2. it holds nothing: an empty inbox, no pending batch, not ended or
//     declared dead;
//  3. its arc to n is drained: every tuple it flushed there, a barrier
//     included, has been received;
//  4. its inlet is empty, under the inlet's lock.
//
// Then nothing the source has emitted is still on its way to n, and nothing
// it will emit is stamped below the bound (inlet.floor). The bound is
// recorded like an on-demand ETS (inlet.promise, the estimator) and capped
// below an armed cut, whose barrier must precede every bound at or above its
// T (ops.Source.IssueETS).
func (e *Engine) readBound(n *node, ctx *ops.Ctx, j int) bool {
	r := n.reads[j]
	s := r.src
	if s == nil || !n.ins[j].Empty() || !s.run.TryLock() {
		return false
	}
	b, ok := e.issueIdleBound(s, r.arc, n.recv[j])
	s.run.Unlock()
	if !ok || !n.iwp.RaiseBound(ctx, j, b) {
		return false
	}
	// The arc's watermark moves as a delivered ETS would move it, so a
	// tuple arriving below the bound later is counted late.
	if v := int64(b); v > n.obs.arcWm[j].Load() {
		n.obs.arcWm[j].Set(v)
	}
	e.boundReads.Add(1)
	s.obs.boundReads.Inc()
	if e.trace != nil {
		e.trace.Emit(metrics.EvBoundRead, n.name, b, int64(j))
	}
	return true
}

// issueIdleBound issues the ETS of the internal source s as a bound, under
// readBound's rules 2–4, given that its consumer has received recv tuples
// of the sent[arc] it flushed: it reports false unless s holds nothing, its
// arc is drained and its inlet empty. The caller holds s.run (rule 1).
func (e *Engine) issueIdleBound(s *node, arc int, recv uint64) (tuple.Time, bool) {
	src := s.gn.Source()
	if s.srcDone || s.dead.Load() || s.pendCount > 0 || !src.Inbox().Empty() || s.sent[arc] != recv {
		return 0, false
	}
	in := s.inlet
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.buf) > 0 {
		return 0, false
	}
	now := e.now()
	if _, at, armed := src.ArmedCut(); armed && now >= at {
		now = at - 1
	}
	b, ok := src.IssueETS(now)
	if ok {
		in.promise(b, true)
	}
	return b, ok
}
