// Package buffer implements the FIFO queues that form the arcs of a query
// graph. In the paper's execution model (§3) a directed arc from Qi to Qj is
// a buffer: Qi appends tuples at the tail (production) and Qj removes them
// from the front (consumption).
//
// Queues track occupancy statistics — in particular the peak size — because
// peak total queue size is the memory metric reported in Figure 8 of the
// paper. Group totals are maintained incrementally: every Push/Pop adjusts
// the running sum of each group observing the queue, so sampling the
// Figure-8 metric costs O(1) per execution step instead of a rescan of every
// arc.
package buffer

import (
	"fmt"

	"repro/internal/tuple"
)

// Queue is a growable ring-buffer FIFO of tuples. Capacity is always a power
// of two so positions reduce with a bitmask instead of a modulo. It is not
// safe for concurrent use; the simulation engine is single-threaded and the
// concurrent runtime gives each operator exclusive ownership of its input
// queues.
type Queue struct {
	name string

	buf   []*tuple.Tuple
	head  int // index of front element
	n     int // number of elements
	mask  int // len(buf)-1; valid whenever buf is non-empty
	nData int // number of buffered data (non-punctuation) tuples

	// groups observing this queue for incremental total-occupancy tracking.
	groups []*Group

	// stats
	peak      int
	pushes    uint64
	pops      uint64
	punctIn   uint64
	punctOut  uint64
	lastTs    tuple.Time // timestamp of the most recently pushed tuple
	hasLastTs bool
}

const minCap = 8

// New returns an empty queue. The name is used in diagnostics and stats.
func New(name string) *Queue {
	return &Queue{name: name}
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// Len reports the number of buffered tuples (data + punctuation).
func (q *Queue) Len() int { return q.n }

// DataLen reports the number of buffered data tuples. Idle-waiting
// detection uses it: an operator holding only punctuation is not delaying
// any result.
func (q *Queue) DataLen() int { return q.nData }

// Empty reports whether the queue holds no tuples.
func (q *Queue) Empty() bool { return q.n == 0 }

// notifyGroups adjusts the running total of every observing group by d.
func (q *Queue) notifyGroups(d int) {
	for _, g := range q.groups {
		g.total += d
	}
}

// push is the unguarded tail append shared by Push and PushAll; capacity
// must already be available.
func (q *Queue) push(t *tuple.Tuple) {
	q.buf[(q.head+q.n)&q.mask] = t
	q.n++
	q.pushes++
	if t.IsPunct() {
		q.punctIn++
	} else {
		q.nData++
	}
	q.lastTs = t.Ts
	q.hasLastTs = true
	if q.n > q.peak {
		q.peak = q.n
	}
}

// Push appends t at the tail of the queue.
func (q *Queue) Push(t *tuple.Tuple) {
	if t == nil {
		panic("buffer: Push(nil)")
	}
	if q.n == len(q.buf) {
		q.grow(q.n + 1)
	}
	q.push(t)
	if len(q.groups) != 0 {
		q.notifyGroups(1)
	}
}

// PushAll appends every tuple of batch in order, ensuring capacity once.
// The batched runtime delivers whole arc batches through it so the per-tuple
// cost is one masked store plus stats.
func (q *Queue) PushAll(batch []*tuple.Tuple) {
	if len(batch) == 0 {
		return
	}
	if q.n+len(batch) > len(q.buf) {
		q.grow(q.n + len(batch))
	}
	for _, t := range batch {
		if t == nil {
			panic("buffer: PushAll(nil tuple)")
		}
		q.push(t)
	}
	if len(q.groups) != 0 {
		q.notifyGroups(len(batch))
	}
}

// Peek returns the front tuple without removing it, or nil when empty.
func (q *Queue) Peek() *tuple.Tuple {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// At returns the i-th buffered tuple counting from the front (0 = front).
// It panics when i is out of range.
func (q *Queue) At(i int) *tuple.Tuple {
	if i < 0 || i >= q.n {
		panic(fmt.Sprintf("buffer %s: At(%d) with len %d", q.name, i, q.n))
	}
	return q.buf[(q.head+i)&q.mask]
}

// pop is the unguarded front removal shared by Pop and PopAll; the queue
// must be non-empty.
func (q *Queue) pop() *tuple.Tuple {
	t := q.buf[q.head]
	q.buf[q.head] = nil // allow GC
	q.head = (q.head + 1) & q.mask
	q.n--
	q.pops++
	if t.IsPunct() {
		q.punctOut++
	} else {
		q.nData--
	}
	return t
}

// Pop removes and returns the front tuple, or nil when empty.
func (q *Queue) Pop() *tuple.Tuple {
	if q.n == 0 {
		return nil
	}
	t := q.pop()
	if len(q.groups) != 0 {
		q.notifyGroups(-1)
	}
	return t
}

// PopAll drains the queue front-to-back, appending every tuple to dst and
// returning the extended slice.
func (q *Queue) PopAll(dst []*tuple.Tuple) []*tuple.Tuple {
	if q.n == 0 {
		return dst
	}
	drained := q.n
	for q.n > 0 {
		dst = append(dst, q.pop())
	}
	if len(q.groups) != 0 {
		q.notifyGroups(-drained)
	}
	return dst
}

// pushFront re-inserts t at the head of the queue. It is the mechanism
// ShedOldest uses to retain punctuation, so it deliberately skips the
// push/punctIn counters — the tuple never left the queue's accounting.
func (q *Queue) pushFront(t *tuple.Tuple) {
	if q.n == len(q.buf) {
		q.grow(q.n + 1)
	}
	q.head = (q.head - 1) & q.mask
	q.buf[q.head] = t
	if !t.IsPunct() {
		q.nData++
	}
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
}

// ShedOldest removes up to k of the oldest buffered *data* tuples — the
// drop-oldest load-shedding policy — and reports how many were removed.
// Punctuation is never shed: dropping data tuples cannot violate an ETS
// promise (the promise bounds future timestamps, it does not guarantee
// delivery), but dropping a bound would re-stall downstream IWP operators.
// Retained punctuation keeps its position relative to the surviving tuples.
func (q *Queue) ShedOldest(k int) int {
	if k <= 0 || q.nData == 0 {
		return 0
	}
	shed := 0
	var keep []*tuple.Tuple
	for shed < k && q.nData > 0 {
		t := q.pop()
		if t.IsPunct() {
			// pop() charged a pop and a punctOut; the punct is going
			// straight back in, so reverse both.
			q.pops--
			q.punctOut--
			keep = append(keep, t)
			continue
		}
		shed++
	}
	for i := len(keep) - 1; i >= 0; i-- {
		q.pushFront(keep[i])
	}
	if shed != 0 && len(q.groups) != 0 {
		q.notifyGroups(-shed)
	}
	return shed
}

// Clear discards all buffered tuples (stats are preserved: cleared tuples
// count as pops, punctuation as punctOut).
func (q *Queue) Clear() {
	drained := q.n
	for q.n > 0 {
		q.pop()
	}
	if drained != 0 && len(q.groups) != 0 {
		q.notifyGroups(-drained)
	}
}

// grow resizes the ring to the smallest power of two ≥ need, unwrapping the
// live region with at most two bulk copies.
func (q *Queue) grow(need int) {
	newCap := len(q.buf)
	if newCap < minCap {
		newCap = minCap
	}
	for newCap < need {
		newCap <<= 1
	}
	nb := make([]*tuple.Tuple, newCap)
	if q.n > 0 {
		if q.head+q.n <= len(q.buf) {
			copy(nb, q.buf[q.head:q.head+q.n])
		} else {
			k := copy(nb, q.buf[q.head:])
			copy(nb[k:], q.buf[:q.n-k])
		}
	}
	q.buf = nb
	q.mask = newCap - 1
	q.head = 0
}

// LastTs returns the timestamp of the most recently pushed tuple and whether
// any tuple has ever been pushed. Source wrappers use it to keep ETS values
// monotone with respect to already-enqueued tuples.
func (q *Queue) LastTs() (tuple.Time, bool) { return q.lastTs, q.hasLastTs }

// Stats is a snapshot of a queue's counters.
type Stats struct {
	Name     string
	Len      int
	Peak     int
	Pushes   uint64
	Pops     uint64
	PunctIn  uint64
	PunctOut uint64
}

// Stats returns a snapshot of the queue's counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Name:     q.name,
		Len:      q.n,
		Peak:     q.peak,
		Pushes:   q.pushes,
		Pops:     q.pops,
		PunctIn:  q.punctIn,
		PunctOut: q.punctOut,
	}
}

// Peak reports the maximum occupancy ever observed.
func (q *Queue) Peak() int { return q.peak }

// ResetStats zeroes the counters (occupancy is untouched) — used when a
// measurement window starts after a warm-up period.
func (q *Queue) ResetStats() {
	q.peak = q.n
	q.pushes = 0
	q.pops = 0
	q.punctIn = 0
	q.punctOut = 0
}

func (q *Queue) String() string {
	return fmt.Sprintf("queue %s: len=%d peak=%d", q.name, q.n, q.peak)
}

// Group aggregates occupancy across a set of queues. The experiment harness
// uses a Group over every arc of the query graph to track *peak total* queue
// size, the metric of Figure 8 (which is a property of the instantaneous sum,
// not the sum of per-queue peaks).
//
// The total is maintained incrementally: member queues adjust it on every
// Push/Pop, so Total and Observe are O(1) regardless of how many arcs the
// graph has. Like Queue, a Group is not safe for concurrent use and its
// member queues must be mutated from a single goroutine.
type Group struct {
	queues []*Queue
	total  int
	peak   int
}

// NewGroup returns a Group observing the given queues.
func NewGroup(queues ...*Queue) *Group {
	g := &Group{}
	for _, q := range queues {
		g.Add(q)
	}
	return g
}

// Add registers another queue with the group; its current occupancy joins
// the running total.
func (g *Group) Add(q *Queue) {
	g.queues = append(g.queues, q)
	q.groups = append(q.groups, g)
	g.total += q.n
}

// Total reports the current total occupancy across all queues.
func (g *Group) Total() int { return g.total }

// Observe samples the current total occupancy and updates the peak. The
// engine calls it after every production step.
func (g *Group) Observe() int {
	if g.total > g.peak {
		g.peak = g.total
	}
	return g.total
}

// Peak reports the maximum total occupancy observed so far.
func (g *Group) Peak() int { return g.peak }

// Reset zeroes the group peak (e.g. after warm-up).
func (g *Group) Reset() { g.peak = g.total }
