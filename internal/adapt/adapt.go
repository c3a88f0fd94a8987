// Package adapt closes the metrics loop: a per-engine controller
// periodically reads the engine's live instruments, decides, and issues
// reconfiguration actions that the runtime applies only at punctuation
// boundaries — the quiescent points the paper's ETS machinery creates on
// every arc. Two actuators:
//
//   - batch tuning: per-node batch size is hill-climbed on observed
//     throughput, with a p95-latency guard that shrinks batches while the
//     sink-observed p95 exceeds the target;
//   - shard rebalance: when the splitter bucket loads drift skewed, a new
//     bucket→shard table (partition.Balance) is installed behind an
//     event-time barrier and promoted by the punctuation that crosses it.
//
// The controller only observes concurrency-safe surfaces (atomic counters,
// swapped tables) and never touches operator state directly: every
// mutation travels through Engine.Reconfigure or Split.Retarget, both of
// which defer the swap to a boundary where the affected state is
// quiescent.
package adapt

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/tuple"
)

// rateSettleDiv is the hill climber's settle band, as a divisor: a rate
// within ±last/rateSettleDiv of the previous tick is a plateau and the
// batch size holds. Without it the climber oscillates between the two
// sizes straddling the optimum forever, paying a reconfiguration at every
// tick for no throughput.
const rateSettleDiv = 20

// Options tunes the controller. The zero value enables every actuator with
// the defaults below; the No* fields disable individual actuators.
type Options struct {
	// Interval is the controller tick (observe→decide cadence). Default
	// 10 ms.
	Interval time.Duration
	// NoBatchTune disables per-node batch-size hill climbing.
	NoBatchTune bool
	// NoRebalance disables splitter bucket re-assignment.
	NoRebalance bool
	// MinBatch/MaxBatch bound the batch-size hill climb (defaults 1 and
	// 1024).
	MinBatch, MaxBatch int
	// TargetP95 is the latency guard: while the observed p95 (from the
	// Latency reservoir) exceeds it, the tuner shrinks batches instead of
	// growing them. 0 disables the guard.
	TargetP95 time.Duration
	// Latency, when non-nil, is the sink-observed latency reservoir the
	// guard reads — typically the embedder's existing end-to-end latency
	// instrument.
	Latency *metrics.Reservoir
	// SkewThreshold is the partition.Skew level above which a rebalance is
	// considered (default 0.25).
	SkewThreshold float64
	// RebalanceMinInterval is the cool-down between rebalances of the same
	// operator (default 20× Interval).
	RebalanceMinInterval time.Duration
	// BarrierLead is added to the splitters' max observed event timestamp
	// when picking a retarget barrier, so the fence sits in the near
	// future of event time (default: one tick's worth of observed
	// watermark advance, minimum 1).
	BarrierLead tuple.Time
}

// defaultInterval is the controller tick when Options.Interval is zero.
const defaultInterval = 10 * time.Millisecond

// defaultMaxBatch caps batch-size hill climbing when Options.MaxBatch is
// zero.
const defaultMaxBatch = 1024

// Controller drives one engine's observe→decide→apply loop. Create with
// New, then either Start/Stop the timer goroutine or call Step
// directly (deterministic ticks for tests and benches).
type Controller struct {
	e        *runtime.Engine
	o        Options
	interval time.Duration
	minBatch int
	maxBatch int
	skew     float64
	cooldown time.Duration

	nodes  []*batchTuner
	groups []*groupTuner

	ticks        *metrics.Counter64
	batchRetunes *metrics.Counter64
	shardRetunes *metrics.Counter64
	shardApplies *metrics.Counter64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// batchTuner hill-climbs one node's batch size: keep moving in the current
// direction while throughput improves, reverse when it degrades, hold when
// it plateaus (the settle band), and shrink unconditionally while the
// latency guard trips.
type batchTuner struct {
	id   int
	name string
	ins  runtime.NodeInstruments
	wOut metrics.RateWindow
	last uint64 // throughput observed on the previous tick
	dir  int    // +1 grow, -1 shrink, 0 undecided
}

// groupTuner watches one sharded operator's splitter group. Bucket loads
// are folded into an exponentially decayed window so the rebalance chases
// the current hot set, not all-time totals.
type groupTuner struct {
	g       runtime.ShardGroup
	prev    [][]uint64 // per splitter: cumulative bucket loads at last tick
	win     []uint64   // decayed per-bucket load window (summed over splitters)
	lastMax tuple.Time // max routed ts at last tick, for the barrier lead
	lastAt  time.Time  // wall time of the last issued retarget
}

// New builds a controller for e from opts (nil means all defaults). The
// engine graph is inspected once, here: nodes with out arcs get batch
// tuners, splitter groups get rebalance state and their OnApply trace
// hooks.
func New(e *runtime.Engine, opts *Options) *Controller {
	var o Options
	if opts != nil {
		o = *opts
	}
	c := &Controller{
		e:        e,
		o:        o,
		interval: o.Interval,
		minBatch: o.MinBatch,
		maxBatch: o.MaxBatch,
		skew:     o.SkewThreshold,
		cooldown: o.RebalanceMinInterval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if c.interval <= 0 {
		c.interval = defaultInterval
	}
	if c.minBatch <= 0 {
		c.minBatch = 1
	}
	if c.maxBatch <= 0 {
		c.maxBatch = defaultMaxBatch
	}
	if c.maxBatch < c.minBatch {
		c.maxBatch = c.minBatch
	}
	if c.skew <= 0 {
		c.skew = 0.25
	}
	if c.cooldown <= 0 {
		c.cooldown = 20 * c.interval
	}
	reg := e.Registry()
	c.ticks = reg.Counter("sm_adapt_ticks_total")
	c.batchRetunes = reg.Counter("sm_adapt_batch_retunes_total")
	c.shardRetunes = reg.Counter("sm_adapt_shard_retunes_total")
	c.shardApplies = reg.Counter("sm_adapt_shard_applies_total")

	for id := 0; id < e.NumNodes(); id++ {
		if !o.NoBatchTune && e.NodeFanOut(id) > 0 {
			c.nodes = append(c.nodes, &batchTuner{
				id:   id,
				name: e.NodeName(id),
				ins:  e.NodeInstruments(id),
			})
		}
	}
	if !o.NoRebalance {
		for _, g := range e.ShardGroups() {
			c.watchGroup(g)
		}
	}
	return c
}

// watchGroup registers one splitter group with the controller: rebalance
// state plus the OnApply hooks that witness barrier promotion (counter and
// EvRetuneApplied trace event, value = the barrier timestamp).
func (c *Controller) watchGroup(g runtime.ShardGroup) *groupTuner {
	gt := &groupTuner{
		g:   g,
		win: make([]uint64, ops.SplitBuckets),
	}
	for _, s := range g.Splitters {
		gt.prev = append(gt.prev, make([]uint64, ops.SplitBuckets))
		name := g.Name
		s.OnApply(func(barrier tuple.Time) {
			c.shardApplies.Inc()
			if tr := c.e.Tracer(); tr != nil {
				tr.Emit(metrics.EvRetuneApplied, name, barrier, int64(barrier))
			}
		})
	}
	c.groups = append(c.groups, gt)
	return gt
}

// Start launches the tick goroutine. Idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			tk := time.NewTicker(c.interval)
			defer tk.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-tk.C:
					c.Step()
				}
			}
		}()
	})
}

// Stop halts the tick goroutine and waits for it to exit. Idempotent; a
// Controller that was never started stops immediately.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) })
	<-c.done
}

// Interval reports the resolved tick cadence.
func (c *Controller) Interval() time.Duration { return c.interval }

// Decisions reports how many reconfigurations each actuator has issued.
func (c *Controller) Decisions() (batch, shard uint64) {
	return c.batchRetunes.Load(), c.shardRetunes.Load()
}

// Retunes reports the total reconfigurations issued across all actuators.
func (c *Controller) Retunes() uint64 {
	b, s := c.Decisions()
	return b + s
}

// Step runs one observe→decide pass: every actuator reads its instrument
// deltas since the previous Step and issues at most one action per target.
// Exported so tests and benches can drive deterministic ticks without the
// timer goroutine; not safe for concurrent use with Start.
func (c *Controller) Step() {
	c.ticks.Inc()
	latHigh := c.latencyHigh()
	for _, n := range c.nodes {
		c.tuneBatch(n, latHigh)
	}
	now := time.Now()
	for _, g := range c.groups {
		c.tuneShards(g, now)
	}
}

// latencyHigh reports whether the guard reservoir's p95 currently exceeds
// the target. Reservoir values are tuple.Time spans (microseconds), as
// produced by sinks observing now-minus-arrival on the virtual clock.
func (c *Controller) latencyHigh() bool {
	if c.o.Latency == nil || c.o.TargetP95 <= 0 || c.o.Latency.Count() == 0 {
		return false
	}
	p95 := c.o.Latency.Snapshot().Percentile(0.95)
	return p95 > c.o.TargetP95.Microseconds()
}

func (c *Controller) tuneBatch(n *batchTuner, latHigh bool) {
	rate := n.ins.TuplesOut.Rate(&n.wOut)
	cur := c.e.NodeBatchSize(n.id)
	if cur <= 0 {
		return
	}
	if rate == 0 {
		// Idle tick: nothing to learn, and remembering a zero would make
		// any future rate look like an improvement in a stale direction.
		n.last = 0
		n.dir = 0
		return
	}
	next := cur
	band := n.last / rateSettleDiv
	switch {
	case latHigh:
		// Latency guard: batches are sitting too long; shrink regardless
		// of throughput until the p95 recovers.
		next = cur / 2
		n.dir = -1
	case n.dir == 0:
		// First loaded tick (or just after idle): probe upward.
		n.dir = 1
		next = cur * 2
	case rate > n.last+band:
		// Meaningful improvement: keep climbing in the current direction.
		if n.dir > 0 {
			next = cur * 2
		} else {
			next = cur / 2
		}
	case rate+band < n.last:
		// Meaningful degradation: reverse.
		n.dir = -n.dir
		if n.dir > 0 {
			next = cur * 2
		} else {
			next = cur / 2
		}
	default:
		// Plateau: the last move bought nothing measurable — hold the
		// current size instead of oscillating around the optimum.
	}
	if next < c.minBatch {
		next = c.minBatch
		n.dir = 1
	}
	if next > c.maxBatch {
		next = c.maxBatch
		n.dir = -1
	}
	n.last = rate
	if next == cur {
		return
	}
	c.e.Reconfigure(n.id, runtime.Reconfig{BatchSize: next})
	c.batchRetunes.Inc()
	if tr := c.e.Tracer(); tr != nil {
		tr.Emit(metrics.EvRetuneBatch, n.name, c.e.Now(), int64(next))
	}
}

func (c *Controller) tuneShards(g *groupTuner, now time.Time) {
	// Fold this tick's routing deltas into the decayed window; the window
	// halves every tick, so roughly the last few ticks dominate.
	maxTs := tuple.MinTime
	for si, s := range g.g.Splitters {
		cum := s.BucketLoads().Snapshot()
		for b := range cum {
			d := cum[b] - g.prev[si][b]
			g.prev[si][b] = cum[b]
			if si == 0 {
				g.win[b] = g.win[b] / 2
			}
			g.win[b] += d
		}
		if ts := s.MaxTs(); ts > maxTs {
			maxTs = ts
		}
	}
	lead := c.o.BarrierLead
	if lead <= 0 {
		// Default lead: one tick's worth of observed event-time advance,
		// so the fence sits in the near future of the streams while the
		// splitters, which keep routing, are armed one by one.
		lead = maxTs - g.lastMax
	}
	g.lastMax = maxTs
	for _, s := range g.g.Splitters {
		if s.RetargetPending() {
			return // a barrier is in flight; never stack retargets
		}
	}
	assign := g.g.Splitters[0].Assignment()
	loads := make([]uint64, g.g.Shards)
	for b, w := range g.win {
		loads[assign[b]] += w
	}
	if partition.Skew(loads) <= c.skew {
		return
	}
	if !g.lastAt.IsZero() && now.Sub(g.lastAt) < c.cooldown {
		return
	}
	next := partition.Balance(g.win, g.g.Shards)
	same := true
	for b := range next {
		if next[b] != assign[b] {
			same = false
			break
		}
	}
	if same {
		return // skewed input, but no better placement exists
	}
	barrier := ops.FenceAt(maxTs, lead)
	for _, s := range g.g.Splitters {
		// Pre-checked pending==nil above and this controller is the only
		// retarget issuer, so every member accepts the identical table —
		// co-location across ports is preserved through the swap.
		s.Retarget(next, barrier)
	}
	g.lastAt = now
	c.shardRetunes.Inc()
	if tr := c.e.Tracer(); tr != nil {
		tr.Emit(metrics.EvRetuneShards, g.g.Name, c.e.Now(), int64(barrier))
	}
}
