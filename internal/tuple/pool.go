package tuple

import (
	"slices"
	"sync"
)

// Allocation pooling for the hot path. The concurrent runtime moves millions
// of tuples per second; allocating every Tuple (and every batch slice that
// carries tuples along an arc) from the heap makes the garbage collector the
// bottleneck long before the operators are. Batch slices are pooled
// (BatchPool); tuples are carved from slabs where they are produced in bulk
// (Magazine.GetData: join outputs, frame decode).
//
// Ownership discipline: a tuple obtained from Get/GetPunct is owned by
// whoever holds the pointer; Put hands it back and the caller must not touch
// it afterwards. A tuple handed to an engine is never Put — it may sit on
// several arcs or in a sink callback's hands, and the GC collects it. Put is
// for a producer that gets its own tuples back: the client library after the
// wire flush, wire.Reader for tuples the session drops.

var tuplePool = sync.Pool{New: func() interface{} { return new(Tuple) }}

// Get returns a cleared data tuple from the pool. Vals has length zero but
// retains the capacity of its previous life, so refilling it with append is
// allocation-free in the steady state.
func Get() *Tuple {
	t := tuplePool.Get().(*Tuple)
	t.Kind = Data
	return t
}

// GetData returns a pooled data tuple stamped ts whose Vals slice has been
// grown to n null values, ready for indexed assignment.
func GetData(ts Time, n int) *Tuple { return asData(Get(), ts, n) }

func asData(t *Tuple, ts Time, n int) *Tuple {
	t.Ts = ts
	if cap(t.Vals) < n {
		t.Vals = make([]Value, n)
	} else {
		t.Vals = t.Vals[:n]
		for i := range t.Vals {
			t.Vals[i] = Value{}
		}
	}
	return t
}

// GetPunct returns a pooled punctuation tuple carrying the ETS value ts.
func GetPunct(ts Time) *Tuple {
	t := tuplePool.Get().(*Tuple)
	t.Ts = ts
	t.Kind = Punct
	t.Vals = t.Vals[:0]
	return t
}

// Put recycles t. The caller must own t exclusively: no other goroutine,
// queue, window store or downstream operator may still reference it. Put is
// nil-safe so release paths need no guard.
func Put(t *Tuple) {
	if t == nil {
		return
	}
	t.Ts = 0
	t.Kind = Data
	t.Vals = t.Vals[:0]
	t.Arrived = 0
	t.Seq = 0
	t.Trace = 0
	t.Ckpt = 0
	tuplePool.Put(t)
}

// MagazineSize is the number of tuples a Magazine exchanges with the shared
// depot in one refill or spill.
const MagazineSize = 64

// magazineDepot holds full magazines: slabs of MagazineSize recycled tuples.
var magazineDepot sync.Pool

// Magazine is a goroutine-local tuple cache layered over the shared pool.
// Get and Put work on a plain local stack; only when the stack runs dry (or
// overflows) does the magazine exchange a whole MagazineSize slab with the
// shared depot — one synchronized operation per MagazineSize tuples instead
// of one per tuple, which matters when the getter and the putter live on
// different goroutines and every per-tuple pool access would cross CPUs. The
// zero Magazine is ready to use. A Magazine must not be shared between
// goroutines.
type Magazine struct {
	stack []*Tuple
	// tuples and vals are the uncarved rest of GetData's slabs.
	tuples []Tuple
	vals   []Value
}

// Get returns a cleared data tuple, refilling from the shared depot (or the
// per-tuple pool, or the heap) when the local stack is empty. The tuple has
// the same state as one from the package-level Get.
func (m *Magazine) Get() *Tuple {
	if len(m.stack) == 0 && !m.refill() {
		return Get()
	}
	n := len(m.stack)
	t := m.stack[n-1]
	m.stack[n-1] = nil
	m.stack = m.stack[:n-1]
	t.Kind = Data
	return t
}

// refill swaps an empty stack for a full magazine from the shared depot and
// reports whether it got one.
func (m *Magazine) refill() bool {
	if bb, _ := magazineDepot.Get().(*batchBox); bb != nil {
		m.stack = bb.s
	}
	return len(m.stack) > 0
}

// GetData is the magazine form of the package-level GetData: a data tuple
// stamped ts with n null values ready for indexed assignment. A recycled
// tuple is preferred. With none on the stack, the tuple and its value array
// are carved from two slabs of about MagazineSize tuples each (one heap
// allocation per slab, not two per tuple), and the depot is asked again
// whenever a slab runs out. A tuple still referenced keeps its whole slab
// from the collector, up to MagazineSize siblings: that is why recycled
// tuples come first and why a slab belongs to one magazine.
func (m *Magazine) GetData(ts Time, n int) *Tuple {
	if len(m.stack) > 0 || (len(m.tuples) == 0 || len(m.vals) < n) && m.refill() {
		return asData(m.Get(), ts, n)
	}
	// Grow rounds the capacity up to the allocator's size class and the slab
	// takes all of it: 64 six-value arrays are 12 KiB, itself a size class,
	// so the block holds exactly 64; other arities may get a few more.
	if len(m.tuples) == 0 {
		m.tuples = slices.Grow([]Tuple(nil), MagazineSize)
		m.tuples = m.tuples[:cap(m.tuples)]
	}
	if len(m.vals) < n {
		m.vals = slices.Grow([]Value(nil), MagazineSize*n)
		m.vals = m.vals[:cap(m.vals)]
	}
	t := &m.tuples[0]
	m.tuples = m.tuples[1:]
	t.Ts = ts
	// The capacity stops at n: a recycled tuple regrowing Vals must not
	// reach into its neighbour's values.
	t.Vals = m.vals[:n:n]
	m.vals = m.vals[n:]
	return t
}

// Put recycles t into the local stack, spilling a full magazine to the
// shared depot once the stack holds two magazines' worth. Put is nil-safe
// and requires the same exclusive ownership as the package-level Put.
func (m *Magazine) Put(t *Tuple) {
	if t == nil {
		return
	}
	t.Ts = 0
	t.Kind = Data
	t.Vals = t.Vals[:0]
	t.Arrived = 0
	t.Seq = 0
	t.Trace = 0
	t.Ckpt = 0
	if len(m.stack) >= 2*MagazineSize {
		top := len(m.stack) - MagazineSize
		spill := make([]*Tuple, MagazineSize)
		copy(spill, m.stack[top:])
		for i := top; i < len(m.stack); i++ {
			m.stack[i] = nil
		}
		m.stack = m.stack[:top]
		magazineDepot.Put(&batchBox{s: spill})
	}
	m.stack = append(m.stack, t)
}

// batchBox wraps a batch slice so the pool can hold it without re-boxing the
// slice header on every round trip.
type batchBox struct{ s []*Tuple }

// BatchPool recycles the []*Tuple slices the runtime's arcs carry. Slices
// come back with length zero and at least the pool's configured capacity.
//
// A sync.Pool holds pointers, so a slice travels in a batchBox; Get hands
// the emptied box to a second pool, where Put picks it up again, so a round
// trip allocates nothing once both pools are warm.
type BatchPool struct {
	capacity int
	p        sync.Pool // boxes holding a batch slice
	boxes    sync.Pool // empty boxes
}

// NewBatchPool returns a pool of batch slices with the given capacity hint.
func NewBatchPool(capacity int) *BatchPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BatchPool{capacity: capacity}
	bp.p.New = func() interface{} {
		return &batchBox{s: make([]*Tuple, 0, capacity)}
	}
	return bp
}

// Get returns an empty batch slice with capacity ≥ the pool's hint.
func (bp *BatchPool) Get() []*Tuple {
	bb := bp.p.Get().(*batchBox)
	s := bb.s[:0]
	bb.s = nil
	bp.boxes.Put(bb)
	return s
}

// Put recycles a batch slice. Entries are cleared so recycled slices do not
// pin tuples against the GC; the tuples themselves are not Put — their
// ownership moved to whoever consumed the batch.
func (bp *BatchPool) Put(b []*Tuple) {
	if b == nil {
		return
	}
	for i := range b {
		b[i] = nil
	}
	bb, _ := bp.boxes.Get().(*batchBox)
	if bb == nil {
		bb = new(batchBox)
	}
	bb.s = b[:0]
	bp.p.Put(bb)
}
