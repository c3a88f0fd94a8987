package window

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ckpt"
	"repro/internal/tuple"
)

func kv(ts tuple.Time, key int64) *tuple.Tuple {
	return tuple.NewData(ts, tuple.Int(key))
}

func TestHashStoreRejectsBadKeyCol(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative key column accepted")
		}
	}()
	NewHashStore(TimeWindow(10), -1)
}

func TestHashStoreProbe(t *testing.T) {
	w := NewHashStore(TimeWindow(100), 0)
	w.Insert(kv(1, 7))
	w.Insert(kv(2, 8))
	w.Insert(kv(3, 7))
	var got []tuple.Time
	w.Probe(tuple.Int(7), func(tp *tuple.Tuple) { got = append(got, tp.Ts) })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("probe(7) = %v", got)
	}
	w.Probe(tuple.Int(99), func(*tuple.Tuple) { t.Fatal("phantom match") })
	if w.Keys() != 2 || w.Len() != 3 {
		t.Errorf("keys=%d len=%d", w.Keys(), w.Len())
	}
}

func TestHashStoreExpiration(t *testing.T) {
	w := NewHashStore(TimeWindow(10), 0)
	w.Insert(kv(0, 7))
	w.Insert(kv(5, 7))
	w.Insert(kv(20, 8)) // expires kv(0,7) and kv(5,7)
	var got []tuple.Time
	w.Probe(tuple.Int(7), func(tp *tuple.Tuple) { got = append(got, tp.Ts) })
	if len(got) != 0 {
		t.Fatalf("expired tuples probeable: %v", got)
	}
	if w.Keys() != 1 || w.Len() != 1 || w.Expired() != 2 {
		t.Errorf("keys=%d len=%d expired=%d", w.Keys(), w.Len(), w.Expired())
	}
	w.ExpireTo(100)
	if w.Len() != 0 || w.Keys() != 0 {
		t.Error("ExpireTo left state behind")
	}
}

func TestHashStoreRowBound(t *testing.T) {
	w := NewHashStore(RowWindow(2), 0)
	for i := 0; i < 5; i++ {
		w.Insert(kv(tuple.Time(i), 7))
	}
	if w.Len() != 2 || w.Peak() != 2 {
		t.Fatalf("len=%d peak=%d", w.Len(), w.Peak())
	}
	var got []tuple.Time
	w.Probe(tuple.Int(7), func(tp *tuple.Tuple) { got = append(got, tp.Ts) })
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("probe after row eviction = %v", got)
	}
}

func TestHashStoreInsertPunctPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert(punct) must panic")
		}
	}()
	NewHashStore(RowWindow(1), 0).Insert(tuple.NewPunct(1))
}

// mixedKey returns key k as an int, a float (−0.0 for zero) or a time value:
// all equal under Value.Equal, so both stores must treat them as one key.
func mixedKey(k int64, kind uint8) tuple.Value {
	switch kind % 3 {
	case 0:
		return tuple.Int(k)
	case 1:
		if k == 0 {
			return tuple.Float(math.Copysign(0, -1))
		}
		return tuple.Float(float64(k))
	default:
		return tuple.TimeVal(tuple.Time(k))
	}
}

// checkAgainstPlain compares every observable of h with a brute-force scan
// of the plain store p that received the same operations.
func checkAgainstPlain(t *testing.T, h *HashStore, p *Store, keys int64) bool {
	t.Helper()
	if h.Len() != p.Len() || h.Peak() != p.Peak() || h.Inserted() != p.Inserted() || h.Expired() != p.Expired() {
		t.Errorf("hash len/peak/ins/exp = %d/%d/%d/%d, plain %d/%d/%d/%d", h.Len(), h.Peak(),
			h.Inserted(), h.Expired(), p.Len(), p.Peak(), p.Inserted(), p.Expired())
		return false
	}
	distinct := 0
	for k := int64(0); k < keys; k++ {
		var hGot, pGot []*tuple.Tuple
		h.Probe(mixedKey(k, uint8(k)), func(x *tuple.Tuple) { hGot = append(hGot, x) })
		p.Each(func(x *tuple.Tuple) {
			if x.Vals[0].Equal(tuple.Int(k)) {
				pGot = append(pGot, x)
			}
		})
		if len(pGot) > 0 {
			distinct++
		}
		if len(hGot) != len(pGot) {
			t.Errorf("key %d: probe found %d tuples, scan %d", k, len(hGot), len(pGot))
			return false
		}
		for i := range pGot {
			if hGot[i] != pGot[i] { // same tuples, in insertion order
				t.Errorf("key %d: probe result %d is %v, scan %v", k, i, hGot[i], pGot[i])
				return false
			}
		}
	}
	if h.Keys() != distinct {
		t.Errorf("Keys() = %d, scan finds %d distinct", h.Keys(), distinct)
		return false
	}
	return true
}

// Property: under any mix of inserts and expirations, with a time bound, a
// row bound or both, a HashStore shows exactly what a brute-force scan of an
// equivalent plain Store shows. 37 mixed-kind keys over rings that start at
// 8 slots give colliding buckets and growth while the ring is wrapped.
func TestHashStoreMatchesPlainStore(t *testing.T) {
	const keys = 37
	f := func(ops []uint8, spanRaw, rowsRaw uint8) bool {
		spec := Spec{Span: tuple.Time(spanRaw%40 + 1)}
		if rowsRaw%3 != 0 {
			spec.Rows = int(rowsRaw%50) + 1
		}
		if rowsRaw%3 == 1 {
			spec.Span = 0
		}
		h := NewHashStore(spec, 0)
		p := NewStore(spec)
		ts := tuple.Time(0)
		for i, op := range ops {
			ts += tuple.Time(op % 4)
			if op%7 == 0 { // the opposite side's progress expires this one
				bound := ts + tuple.Time(op%16)
				h.ExpireTo(bound)
				p.ExpireTo(bound)
			}
			tp := tuple.NewData(ts, mixedKey(int64(op)%keys, uint8(i)))
			h.Insert(tp)
			p.Insert(tp)
			if !checkAgainstPlain(t, h, p, keys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// wrappedAndGrown returns a store (and its plain twin) whose ring wrapped,
// then grew while wrapped, then wrapped again.
func wrappedAndGrown(t *testing.T) (*HashStore, *Store) {
	t.Helper()
	h, p := NewHashStore(TimeWindow(10), 0), NewStore(TimeWindow(10))
	insert := func(ts tuple.Time, key int64) {
		tp := tuple.NewData(ts, mixedKey(key, uint8(ts)), tuple.String_("payload"))
		h.Insert(tp)
		p.Insert(tp)
		if !checkAgainstPlain(t, h, p, 8) {
			t.FailNow()
		}
	}
	for i := int64(0); i < 6; i++ {
		insert(tuple.Time(i), i%3)
	}
	insert(14, 1) // expires 0..3: head moves to slot 4 of 8
	if h.head == 0 {
		t.Fatal("ring did not advance")
	}
	for i := int64(0); i < 12; i++ { // fills past slot 7: wraps, then grows
		insert(14, i%8)
	}
	if len(h.slots) != 16 {
		t.Fatalf("ring capacity %d, want 16 after one growth", len(h.slots))
	}
	for i := int64(0); i < 20; i++ {
		insert(20+tuple.Time(i), i%8)
	}
	if h.head+h.n <= len(h.slots) {
		t.Fatalf("ring not wrapped: head %d, n %d, capacity %d", h.head, h.n, len(h.slots))
	}
	return h, p
}

func TestHashStoreGrowsWhileWrapped(t *testing.T) {
	h, p := wrappedAndGrown(t)
	h.ExpireTo(1000)
	p.ExpireTo(1000)
	checkAgainstPlain(t, h, p, 8)
	if h.Len() != 0 {
		t.Fatalf("%d tuples survive ExpireTo past every timestamp", h.Len())
	}
	for i, b := range h.buckets {
		if b.head >= 0 {
			t.Fatalf("bucket %d still links slot %d of an empty store", i, b.head)
		}
	}
}

// A store that has grown and wrapped saves, restores and saves again to the
// same bytes, and the restored index answers as the original does.
func TestHashStoreStateRoundTripAfterGrowth(t *testing.T) {
	h, p := wrappedAndGrown(t)
	var first ckpt.Encoder
	h.SaveState(&first)
	back := NewHashStore(h.Spec(), 0)
	if err := back.RestoreState(ckpt.NewDecoder(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	var second ckpt.Encoder
	back.SaveState(&second)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save → restore → save changed the bytes")
	}
	// The restored store holds equal tuples, not the same pointers.
	for k := int64(0); k < 8; k++ {
		var want, got []tuple.Time
		h.Probe(tuple.Int(k), func(x *tuple.Tuple) { want = append(want, x.Ts) })
		back.Probe(tuple.Int(k), func(x *tuple.Tuple) { got = append(got, x.Ts) })
		if len(got) != len(want) {
			t.Fatalf("key %d: restored probe finds %d tuples, original %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %d: restored probe order %v, original %v", k, got, want)
			}
		}
	}
	if back.Keys() != h.Keys() || back.Len() != p.Len() || back.Peak() != p.Peak() {
		t.Fatalf("restored keys/len/peak = %d/%d/%d, want %d/%d/%d",
			back.Keys(), back.Len(), back.Peak(), h.Keys(), p.Len(), p.Peak())
	}
}

// The expiring slot is always its chain's head. Should a bug ever break that,
// expiry must still unlink the slot (by walking the chain) and leave the
// other tuples of the bucket reachable, not panic or leak a link.
func TestHashStoreUnlinksFromMidChain(t *testing.T) {
	h := NewHashStore(TimeWindow(100), 0)
	a, b, c := kv(1, 7), kv(2, 7), kv(3, 7)
	h.Insert(a)
	h.Insert(b)
	h.Insert(c)
	// Corrupt the chain order a→b→c into b→a→c.
	bk := h.bucketOf(h.slots[0].hash)
	bk.head = 1
	h.slots[1].next = 0
	h.slots[0].next = 2
	h.popFront() // expires a, which now sits mid-chain
	var got []*tuple.Tuple
	h.Probe(tuple.Int(7), func(x *tuple.Tuple) { got = append(got, x) })
	if len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("after unlinking a from mid-chain, probe = %v", got)
	}
	// Corrupt again so the expiring slot is the chain's tail: b is at the
	// ring's front, the chain reads c→b.
	bk.head, bk.tail = 2, 1
	h.slots[2].next = 1
	h.slots[1].next = -1
	h.popFront()
	d := kv(4, 7)
	h.Insert(d) // must append after c, the new tail
	got = got[:0]
	h.Probe(tuple.Int(7), func(x *tuple.Tuple) { got = append(got, x) })
	if len(got) != 2 || got[0] != c || got[1] != d {
		t.Fatalf("after unlinking the tail, probe = %v", got)
	}
	h.ExpireTo(1000)
	if h.Len() != 0 || h.Keys() != 0 {
		t.Fatalf("len %d keys %d after expiring everything", h.Len(), h.Keys())
	}
}

// Once the ring has reached the window's size, the join's calls (expire,
// then probe and insert in one) allocate nothing.
func TestHashStoreSteadyStateAllocatesNothing(t *testing.T) {
	h := NewHashStore(TimeWindow(100), 0)
	in := make([]*tuple.Tuple, 512)
	for i := range in {
		in[i] = kv(0, int64(i%61))
	}
	i, matches := 0, 0
	count := func(*tuple.Tuple) { matches++ }
	step := func() {
		tp := in[i%len(in)]
		tp.Ts = tuple.Time(i)
		h.ExpireTo(tp.Ts)
		h.ProbeInsert(tp, h, count)
		i++
	}
	for i < 400 { // fill the window and let the ring wrap
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("expire+probe+insert allocates %.2f objects per tuple in steady state", avg)
	}
	if matches == 0 {
		t.Fatal("no probe matched")
	}
}

// BenchmarkHashStoreSteadyState drives two HashStores the way the hash join
// does on the benchmark's join_dense workload: a 20 ms span with one tuple
// per side every 20 µs (about 1000 live tuples a side), keys drawn over 1024,
// and per tuple an expire of the opposite side and one ProbeInsert: a probe
// of the opposite side and an insert into the own side under one key hash.
// The tuples are built before the clock starts.
func BenchmarkHashStoreSteadyState(b *testing.B) {
	const span, step, keys = 20000, 20, 1024
	win := [2]*HashStore{NewHashStore(TimeWindow(span), 0), NewHashStore(TimeWindow(span), 0)}
	in := make([]*tuple.Tuple, 1<<16)
	x := uint64(1)
	for i := range in {
		x = x*6364136223846793005 + 1442695040888963407
		in[i] = tuple.NewData(0, tuple.Int(int64(x>>33)%keys))
	}
	matches := 0
	count := func(*tuple.Tuple) { matches++ }
	feed := func(i int) {
		t, side := in[i%len(in)], i&1
		t.Ts = tuple.Time(i / 2 * step)
		win[1-side].ExpireTo(t.Ts)
		win[1-side].ProbeInsert(t, win[side], count)
	}
	warm := 4 * span / step // both windows full and wrapped
	for i := 0; i < warm; i++ {
		feed(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(warm + i)
	}
	b.StopTimer()
	if matches == 0 {
		b.Fatal("no probe matched")
	}
}
