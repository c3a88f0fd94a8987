package ops

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/tuple"
)

// SplitBuckets is the granularity of the splitter's re-assignable routing
// table: a data tuple's key hashes into one of SplitBuckets consistent-hash
// buckets, and the bucket→shard table says which shard owns it. 256 buckets
// keep the table one cache line per 64 shards while leaving the adaptive
// controller enough granularity to peel individual hot key groups off an
// overloaded shard.
const SplitBuckets = 256

// retarget is the payload of a splitter's fence: the bucket→shard table
// that becomes current when the stream reaches the fence, and the version it
// brings.
type retarget struct {
	assign  []int32
	version uint64
}

// Split is the hash-partitioning router inserted on each input arc of a
// partitioned operator. It consumes one stream and routes every data tuple to
// exactly one of its shard out-arcs — by hashing the key column into a
// bucket of the assignment table, or round-robin when the operator has no
// key for this input — while *broadcasting* every punctuation tuple to all
// shards so each shard's TSM registers keep advancing.
//
// Punctuation is broadcast as fresh copies (one GetPunct per arc), never as a
// shared pointer: the runtime stamps trace context into a punctuation as it
// emits it, and the shards receiving it run on different goroutines.
//
// The bucket table is re-assignable at runtime (Retarget): the adaptive
// controller moves hot buckets between shards at a punctuation barrier.
// Routing is a pure function of (key hash, tuple timestamp, published
// tables), so the splitters feeding different input ports of one sharded
// operator stay key-co-located as long as they are given the same assignment
// and barrier — which is how the controller issues them.
type Split struct {
	base
	shards int
	key    int // key column, or -1 for round-robin routing
	rr     int
	routed *metrics.PerShard

	// cur is the live bucket→shard table (len SplitBuckets); fence, when
	// armed, holds a retarget waiting for the stream to reach its barrier.
	// Both are written by Retarget/promotion and read on the hot path.
	cur     atomic.Pointer[[]int32]
	fence   Fence[*retarget]
	version atomic.Uint64 // bumps when a retarget is promoted (applied)

	// load counts data tuples per bucket since the last Rate() poll by the
	// controller — the skew evidence Balance() consumes.
	load *metrics.PerShard
	// maxTs is the highest data timestamp routed so far; the controller
	// picks retarget barriers above it so the fence is in the future.
	maxTs atomic.Int64
	// onApply, when set, runs on the splitter's own goroutine at the
	// punctuation that promotes a retarget — the quiescence witness hook the
	// controller uses to emit EvRetuneApplied.
	onApply atomic.Pointer[func(barrier tuple.Time)]
}

// NewSplit builds a splitter routing one input stream to shards out-arcs.
// key is the column index hashed to pick a shard, or -1 to route data tuples
// round-robin (used when the downstream operator is key-agnostic on this
// input, e.g. a sharded union).
func NewSplit(name string, schema *tuple.Schema, shards, key int) *Split {
	if shards < 2 {
		panic(fmt.Sprintf("split %s: need at least 2 shards, got %d", name, shards))
	}
	s := &Split{
		base:   base{name: name, inputs: 1, schema: schema},
		shards: shards,
		key:    key,
		routed: metrics.NewPerShard(shards),
		load:   metrics.NewPerShard(SplitBuckets),
	}
	assign := make([]int32, SplitBuckets)
	for b := range assign {
		assign[b] = int32(b % shards)
	}
	s.cur.Store(&assign)
	return s
}

// Shards reports the splitter's fan-out.
func (s *Split) Shards() int { return s.shards }

// Key reports the routing column, or -1 for round-robin.
func (s *Split) Key() int { return s.key }

// Routed exposes the per-shard routed-tuple counters (data tuples only).
func (s *Split) Routed() *metrics.PerShard { return s.routed }

// BucketLoads exposes the per-bucket routed-tuple counters.
func (s *Split) BucketLoads() *metrics.PerShard { return s.load }

// Assignment returns a copy of the live bucket→shard table.
func (s *Split) Assignment() []int32 {
	return append([]int32(nil), (*s.cur.Load())...)
}

// AssignVersion counts promoted retargets; the controller polls it to learn
// that a Retarget it issued has been applied at its barrier.
func (s *Split) AssignVersion() uint64 { return s.version.Load() }

// RetargetPending reports whether a retarget has been issued but not yet
// promoted. A splitter group with any pending member must not be retargeted
// again: issuing to only some members would break key co-location.
func (s *Split) RetargetPending() bool {
	_, _, ok := s.fence.Armed()
	return ok
}

// MaxTs reports the highest data timestamp the splitter has routed.
func (s *Split) MaxTs() tuple.Time { return tuple.Time(s.maxTs.Load()) }

// OnApply installs fn to run (on the splitter's goroutine) at the
// punctuation boundary that promotes a retarget; nil removes it.
func (s *Split) OnApply(fn func(barrier tuple.Time)) {
	if fn == nil {
		s.onApply.Store(nil)
		return
	}
	s.onApply.Store(&fn)
}

// Retarget publishes a new bucket→shard assignment fenced on a punctuation
// barrier. Data tuples with Ts ≥ barrier route through assign immediately
// (they are ahead of the fence); older tuples keep the current table until a
// punctuation ≥ barrier proves the old cohort is complete, at which point
// the new table becomes current. Because routing depends only on the tuple's
// own timestamp, every splitter of a sharded operator given the same
// (assign, barrier) keeps equal-key tuples co-located through the swap.
//
// Returns false (rejecting the retarget) for round-robin splitters — their
// routing is stateless by design — for a malformed table, or when a previous
// retarget is still waiting on its barrier (the controller retries on a
// later tick rather than stacking fences).
func (s *Split) Retarget(assign []int32, barrier tuple.Time) bool {
	if s.key < 0 || len(assign) != SplitBuckets {
		return false
	}
	for _, sh := range assign {
		if sh < 0 || int(sh) >= s.shards {
			return false
		}
	}
	next := &retarget{
		assign:  append([]int32(nil), assign...),
		version: s.version.Load() + 1,
	}
	return s.fence.Arm(barrier, next)
}

// route picks the shard for a data tuple from its key hash and timestamp.
func (s *Split) route(hash uint64, ts tuple.Time) int {
	b := hash % SplitBuckets
	s.load.Add(int(b), 1)
	if at, p, ok := s.fence.Armed(); ok && ts >= at {
		return int(p.assign[b])
	}
	return int((*s.cur.Load())[b])
}

// noteTs records a routed data timestamp for barrier selection.
func (s *Split) noteTs(ts tuple.Time) {
	if int64(ts) > s.maxTs.Load() {
		s.maxTs.Store(int64(ts))
	}
}

// promote retires the old table if punctuation ts reaches the fence. Runs
// only on the splitter's own goroutine (Exec), which is what makes the
// punctuation a true quiescent point for this arc.
func (s *Split) promote(ts tuple.Time) {
	at, p, ok := s.fence.Reach(ts)
	if !ok {
		return
	}
	s.cur.Store(&p.assign)
	s.version.Store(p.version)
	if fn := s.onApply.Load(); fn != nil {
		(*fn)(at)
	}
}

// More reports whether the input holds a tuple.
func (s *Split) More(ctx *Ctx) bool { return !ctx.Ins[0].Empty() }

// BlockingInput returns 0 when the input is empty.
func (s *Split) BlockingInput(ctx *Ctx) int {
	if ctx.Ins[0].Empty() {
		return 0
	}
	return -1
}

// Exec routes one tuple: data to its shard, punctuation to every shard.
func (s *Split) Exec(ctx *Ctx) bool {
	t := ctx.Ins[0].Pop()
	if t == nil {
		return false
	}
	if t.IsPunct() {
		s.promote(t.Ts)
		// Each shard gets its own copy so ownership stays single; EOS
		// (a punctuation at MaxTime) broadcasts the same way, and a
		// checkpoint barrier's tag rides every copy — each shard aligns on
		// its own barrier.
		for k := 0; k < s.shards; k++ {
			p := tuple.GetPunct(t.Ts)
			p.Ckpt = t.Ckpt
			ctx.EmitTo(k, p)
		}
		if t.Ckpt != 0 {
			ctx.barrier(t.Ckpt, t.Ts)
		}
		return true
	}
	var k int
	if s.key < 0 || s.key >= len(t.Vals) {
		k = s.rr
		s.rr = (s.rr + 1) % s.shards
	} else {
		k = s.route(t.Vals[s.key].Hash(), t.Ts)
		s.noteTs(t.Ts)
	}
	s.routed.Add(k, 1)
	ctx.EmitTo(k, t)
	return true
}
