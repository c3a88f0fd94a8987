package window

import (
	"fmt"
	"math/bits"

	"repro/internal/tuple"
)

// HashStore is a window store with a hash index on one key column, giving
// O(matches) equi-join probes instead of a full window scan. Tuples live in
// a power-of-two ring (insertion = timestamp order) for expiration; the
// index is intrusive: every ring slot carries its key's hash and a link to
// the next slot of the same bucket, so inserting, probing and expiring
// allocate nothing once the ring has reached the window's size.
//
// Keys match when Value.Equal says so (Int(1), Float(1) and TimeVal(1) are
// one key, as for the nested-loop join and the hash partitioner); buckets
// are chosen from Value.Hash, which is consistent with Equal. The symmetric
// join drives a pair of stores through ProbeInsert, which hashes each
// arriving key once for the probe of one store and the insert into the other.
type HashStore struct {
	spec   Spec
	keyCol int

	// slots is the ring; slot (head+i)&mask holds the i-th oldest live tuple.
	slots []slot
	head  int
	n     int

	// buckets has twice the ring's capacity. A chain links its slots in
	// insertion order, and expiration is in insertion order too, so the
	// expiring slot is always the head of its chain: unlinking it is O(1) and
	// never looks at the key.
	buckets []bucket
	shift   uint // 64 − log2(len(buckets))

	peak     int
	inserted uint64
	expired  uint64
}

type slot struct {
	t    *tuple.Tuple
	hash uint64 // t's key hash, cached for probes and for finding the bucket
	next int32  // next slot in the bucket's chain, −1 at the tail
}

type bucket struct{ head, tail int32 }

// NewHashStore returns an empty hash-indexed window keyed on column keyCol.
func NewHashStore(spec Spec, keyCol int) *HashStore {
	if keyCol < 0 {
		panic("window: negative key column")
	}
	return &HashStore{spec: spec, keyCol: keyCol}
}

// Spec returns the window's extent specification.
func (w *HashStore) Spec() Spec { return w.spec }

// Len reports the number of live tuples.
func (w *HashStore) Len() int { return w.n }

// Peak reports the maximum number of live tuples ever held.
func (w *HashStore) Peak() int { return w.peak }

// Inserted reports the total number of tuples ever inserted.
func (w *HashStore) Inserted() uint64 { return w.inserted }

// Expired reports the total number of tuples ever expired.
func (w *HashStore) Expired() uint64 { return w.expired }

// bucketOf maps a key hash to its bucket: Value.Hash ends in a full
// avalanche, so its top bits index the table directly.
func (w *HashStore) bucketOf(hash uint64) *bucket {
	return &w.buckets[hash>>w.shift]
}

// Insert adds t and applies the window bounds, exactly like Store.Insert.
func (w *HashStore) Insert(t *tuple.Tuple) { w.insert(t, t.Vals[w.keyCol].Hash()) }

// ProbeInsert is one step of the symmetric hash join: it calls fn for every
// live tuple of w whose key equals t's key in own's key column, in insertion
// order, and then inserts t into own. The key is hashed once for both.
func (w *HashStore) ProbeInsert(t *tuple.Tuple, own *HashStore, fn func(*tuple.Tuple)) {
	key := t.Vals[own.keyCol]
	hash := key.Hash()
	w.probe(key, hash, fn)
	own.insert(t, hash)
}

// insert is Insert with t's key hash already computed.
func (w *HashStore) insert(t *tuple.Tuple, hash uint64) {
	if t.IsPunct() {
		panic("window: Insert(punctuation)")
	}
	if w.n == len(w.slots) {
		w.grow()
	}
	w.link(int32((w.head+w.n)&(len(w.slots)-1)), t, hash)
	w.n++
	w.inserted++
	w.ExpireTo(t.Ts)
	if w.spec.Rows > 0 {
		for w.n > w.spec.Rows {
			w.popFront()
		}
	}
	if w.n > w.peak {
		w.peak = w.n
	}
}

// link fills slot i and appends it to its bucket's chain.
func (w *HashStore) link(i int32, t *tuple.Tuple, hash uint64) {
	w.slots[i] = slot{t: t, hash: hash, next: -1}
	b := w.bucketOf(hash)
	if b.head < 0 {
		b.head = i
	} else {
		w.slots[b.tail].next = i
	}
	b.tail = i
}

// ExpireTo removes tuples with ts < bound − Span from both structures.
func (w *HashStore) ExpireTo(ts tuple.Time) {
	if w.spec.Span <= 0 {
		return
	}
	limit := ts - w.spec.Span
	for w.n > 0 && w.slots[w.head].t.Ts < limit {
		w.popFront()
	}
}

func (w *HashStore) popFront() {
	i := int32(w.head)
	s := &w.slots[i]
	b := w.bucketOf(s.hash)
	if b.head == i {
		b.head = s.next
	} else {
		// Defensive: cannot happen while chains are in insertion order, but
		// a corrupted index must not leave a freed slot linked.
		for p := b.head; p >= 0; p = w.slots[p].next {
			if w.slots[p].next == i {
				w.slots[p].next = s.next
				if b.tail == i {
					b.tail = p
				}
				break
			}
		}
	}
	s.t = nil
	w.head = (w.head + 1) & (len(w.slots) - 1)
	w.n--
	w.expired++
}

// grow doubles the ring, laying the live tuples out from slot 0, and
// rebuilds the buckets (every slot moved) at twice the new capacity.
func (w *HashStore) grow() {
	old, mask := w.slots, len(w.slots)-1
	newCap := len(old) * 2
	if newCap < 8 {
		newCap = 8
	}
	w.slots = make([]slot, newCap)
	w.buckets = make([]bucket, 2*newCap)
	for i := range w.buckets {
		w.buckets[i] = bucket{head: -1, tail: -1}
	}
	w.shift = uint(64 - bits.TrailingZeros(uint(len(w.buckets))))
	for i := 0; i < w.n; i++ {
		s := &old[(w.head+i)&mask]
		w.link(int32(i), s.t, s.hash)
	}
	w.head = 0
}

// each calls fn for every live tuple in insertion order.
func (w *HashStore) each(fn func(*tuple.Tuple)) {
	for i := 0; i < w.n; i++ {
		fn(w.slots[(w.head+i)&(len(w.slots)-1)].t)
	}
}

// holds reports whether slot i's key is key, whose hash is hash.
func (w *HashStore) holds(i int32, hash uint64, key tuple.Value) bool {
	s := &w.slots[i]
	return s.hash == hash && s.t.Vals[w.keyCol].Equal(key)
}

// Probe calls fn for every live tuple whose key column equals key, in
// insertion order.
func (w *HashStore) Probe(key tuple.Value, fn func(*tuple.Tuple)) { w.probe(key, key.Hash(), fn) }

// probe is Probe with key's hash already computed.
func (w *HashStore) probe(key tuple.Value, hash uint64, fn func(*tuple.Tuple)) {
	if w.n == 0 {
		return
	}
	for i := w.bucketOf(hash).head; i >= 0; i = w.slots[i].next {
		if w.holds(i, hash, key) {
			fn(w.slots[i].t)
		}
	}
}

// Keys reports the number of distinct live keys. Nothing on the data path
// needs it, so it is counted on demand: a live tuple opens a new key when no
// older slot of its chain holds an equal one.
func (w *HashStore) Keys() int {
	keys := 0
	for i := 0; i < w.n; i++ {
		at := int32((w.head + i) & (len(w.slots) - 1))
		hash := w.slots[at].hash
		p := w.bucketOf(hash).head
		for p >= 0 && p != at && !w.holds(p, hash, w.slots[at].t.Vals[w.keyCol]) {
			p = w.slots[p].next
		}
		if p == at {
			keys++
		}
	}
	return keys
}

func (w *HashStore) String() string {
	return fmt.Sprintf("hash%v len=%d keys=%d peak=%d", w.spec, w.n, w.Keys(), w.peak)
}
