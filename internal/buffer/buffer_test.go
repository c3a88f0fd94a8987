package buffer

import (
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func TestQueueFIFO(t *testing.T) {
	q := New("a")
	if !q.Empty() || q.Len() != 0 || q.Peek() != nil || q.Pop() != nil {
		t.Fatal("fresh queue not empty")
	}
	for i := 0; i < 100; i++ {
		q.Push(tuple.NewData(tuple.Time(i), tuple.Int(int64(i))))
	}
	if q.Len() != 100 || q.Empty() {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		if got := q.Peek(); got.Ts != tuple.Time(i) {
			t.Fatalf("Peek %d: ts=%v", i, got.Ts)
		}
		if got := q.Pop(); got.Ts != tuple.Time(i) {
			t.Fatalf("Pop %d: ts=%v", i, got.Ts)
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty after draining")
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	// Exercises ring wrap-around: alternate pushes and pops so head travels.
	q := New("w")
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(tuple.NewData(tuple.Time(next)))
			next++
		}
		for i := 0; i < 2; i++ {
			got := q.Pop()
			if got.Ts != tuple.Time(want) {
				t.Fatalf("round %d: pop ts=%v want %d", round, got.Ts, want)
			}
			want++
		}
	}
	for !q.Empty() {
		got := q.Pop()
		if got.Ts != tuple.Time(want) {
			t.Fatalf("drain: pop ts=%v want %d", got.Ts, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d, pushed %d", want, next)
	}
}

func TestQueueAt(t *testing.T) {
	q := New("at")
	for i := 0; i < 10; i++ {
		q.Push(tuple.NewData(tuple.Time(i)))
	}
	q.Pop()
	q.Pop()
	for i := 0; i < q.Len(); i++ {
		if got := q.At(i); got.Ts != tuple.Time(i+2) {
			t.Fatalf("At(%d).Ts = %v", i, got.Ts)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("At out of range must panic")
		}
	}()
	q.At(q.Len())
}

func TestQueuePushNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Push(nil) must panic")
		}
	}()
	New("n").Push(nil)
}

func TestQueueStats(t *testing.T) {
	q := New("s")
	q.Push(tuple.NewData(1))
	q.Push(tuple.NewPunct(2))
	q.Push(tuple.NewData(3))
	q.Pop()
	q.Pop()
	st := q.Stats()
	if st.Name != "s" || st.Len != 1 || st.Peak != 3 || st.Pushes != 3 || st.Pops != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.PunctIn != 1 || st.PunctOut != 1 {
		t.Errorf("punct stats = %+v", st)
	}
	if q.Peak() != 3 {
		t.Errorf("Peak = %d", q.Peak())
	}
	q.ResetStats()
	st = q.Stats()
	if st.Peak != 1 || st.Pushes != 0 || st.Pops != 0 {
		t.Errorf("after reset: %+v", st)
	}
}

func TestQueueLastTs(t *testing.T) {
	q := New("l")
	if _, ok := q.LastTs(); ok {
		t.Error("fresh queue claims a last ts")
	}
	q.Push(tuple.NewData(5))
	q.Push(tuple.NewData(9))
	if ts, ok := q.LastTs(); !ok || ts != 9 {
		t.Errorf("LastTs = %v, %v", ts, ok)
	}
	q.Pop()
	q.Pop()
	if ts, ok := q.LastTs(); !ok || ts != 9 {
		t.Error("LastTs must survive draining")
	}
}

func TestQueueClear(t *testing.T) {
	q := New("c")
	for i := 0; i < 5; i++ {
		q.Push(tuple.NewData(tuple.Time(i)))
	}
	q.Clear()
	if !q.Empty() {
		t.Error("Clear left tuples")
	}
	if q.Peak() != 5 {
		t.Error("Clear must preserve peak")
	}
}

func TestGroupPeakIsInstantaneousSum(t *testing.T) {
	a, b := New("a"), New("b")
	g := NewGroup(a)
	g.Add(b)

	// a peaks at 3 while b is empty; then a drains and b peaks at 3.
	// Sum of per-queue peaks would be 6; the instantaneous total peak is 3.
	for i := 0; i < 3; i++ {
		a.Push(tuple.NewData(tuple.Time(i)))
		g.Observe()
	}
	for !a.Empty() {
		a.Pop()
		g.Observe()
	}
	for i := 0; i < 3; i++ {
		b.Push(tuple.NewData(tuple.Time(i)))
		g.Observe()
	}
	if g.Peak() != 3 {
		t.Errorf("group peak = %d, want 3", g.Peak())
	}
	if g.Total() != 3 {
		t.Errorf("group total = %d, want 3", g.Total())
	}
	g.Reset()
	if g.Peak() != 3 {
		t.Errorf("Reset should set peak to current total, got %d", g.Peak())
	}
	b.Clear()
	g.Observe()
	if g.Peak() != 3 {
		t.Errorf("peak after drain = %d", g.Peak())
	}
}

func TestQueueClearStatAccounting(t *testing.T) {
	// Clear counts the discarded tuples as pops (and punctuation as
	// punctOut) so push/pop ledgers stay balanced across a Clear.
	q := New("cs")
	q.Push(tuple.NewData(1))
	q.Push(tuple.NewPunct(2))
	q.Push(tuple.NewData(3))
	q.Pop()
	q.Clear()
	st := q.Stats()
	if st.Len != 0 || st.Pushes != 3 || st.Pops != 3 {
		t.Errorf("stats after Clear = %+v", st)
	}
	if st.PunctIn != 1 || st.PunctOut != 1 {
		t.Errorf("punct stats after Clear = %+v", st)
	}
	if q.DataLen() != 0 {
		t.Errorf("DataLen after Clear = %d", q.DataLen())
	}
	q.Clear() // idempotent on empty
	if got := q.Stats().Pops; got != 3 {
		t.Errorf("Clear on empty queue changed pops: %d", got)
	}
}

func TestQueueAtAfterHeadWrap(t *testing.T) {
	// Drive head past the capacity boundary, then check At indexes the
	// logical order, not the physical layout.
	q := New("wrapAt")
	for i := 0; i < minCap; i++ {
		q.Push(tuple.NewData(tuple.Time(i)))
	}
	for i := 0; i < minCap-2; i++ {
		q.Pop()
	}
	// head is near the end of the ring; these pushes wrap physically.
	for i := minCap; i < minCap+4; i++ {
		q.Push(tuple.NewData(tuple.Time(i)))
	}
	want := []tuple.Time{tuple.Time(minCap - 2), tuple.Time(minCap - 1),
		tuple.Time(minCap), tuple.Time(minCap + 1), tuple.Time(minCap + 2), tuple.Time(minCap + 3)}
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	for i, w := range want {
		if got := q.At(i).Ts; got != w {
			t.Fatalf("At(%d).Ts = %v, want %v", i, got, w)
		}
	}
}

func TestQueueGrowPreservesOrderWithPunctuation(t *testing.T) {
	// Wrap the ring, then force growth and verify FIFO order with data and
	// punctuation interleaved across the copy.
	q := New("growp")
	mk := func(i int) *tuple.Tuple {
		if i%3 == 0 {
			return tuple.NewPunct(tuple.Time(i))
		}
		return tuple.NewData(tuple.Time(i))
	}
	next, want := 0, 0
	for i := 0; i < 5; i++ {
		q.Push(mk(next))
		next++
	}
	for i := 0; i < 4; i++ { // move head so the live region wraps post-growth
		q.Pop()
		want++
	}
	for next < 40 { // forces several grow() calls while head ≠ 0
		q.Push(mk(next))
		next++
	}
	if q.Len()&(q.Len()-1) != 0 && len(q.buf)&(len(q.buf)-1) != 0 {
		t.Fatalf("capacity %d not a power of two", len(q.buf))
	}
	for !q.Empty() {
		got := q.Pop()
		if got.Ts != tuple.Time(want) {
			t.Fatalf("pop ts=%v want %d", got.Ts, want)
		}
		if wantPunct := want%3 == 0; got.IsPunct() != wantPunct {
			t.Fatalf("tuple %d: punct=%v", want, got.IsPunct())
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d, pushed %d", want, next)
	}
}

func TestQueueCapacityAlwaysPowerOfTwo(t *testing.T) {
	q := New("pow2")
	for i := 0; i < 1000; i++ {
		q.Push(tuple.NewData(tuple.Time(i)))
		if c := len(q.buf); c != 0 && c&(c-1) != 0 {
			t.Fatalf("capacity %d not a power of two after %d pushes", c, i+1)
		}
	}
	q2 := New("pow2batch")
	batch := make([]*tuple.Tuple, 100)
	for i := range batch {
		batch[i] = tuple.NewData(tuple.Time(i))
	}
	q2.PushAll(batch)
	if c := len(q2.buf); c&(c-1) != 0 || c < 100 {
		t.Fatalf("PushAll capacity = %d", c)
	}
}

func TestQueueLastTsMonotonicityAcrossWrap(t *testing.T) {
	// LastTs tracks the most recent push — including punctuation — and is
	// unaffected by pops, Clear, or ring growth.
	q := New("lts")
	for i := 0; i < 20; i++ {
		q.Push(tuple.NewData(tuple.Time(i * 10)))
		if ts, ok := q.LastTs(); !ok || ts != tuple.Time(i*10) {
			t.Fatalf("LastTs after push %d = %v, %v", i, ts, ok)
		}
		if i%2 == 0 {
			q.Pop()
			if ts, _ := q.LastTs(); ts != tuple.Time(i*10) {
				t.Fatalf("Pop moved LastTs to %v", ts)
			}
		}
	}
	q.Push(tuple.NewPunct(500))
	if ts, _ := q.LastTs(); ts != 500 {
		t.Fatalf("punct push must advance LastTs, got %v", ts)
	}
	q.Clear()
	if ts, ok := q.LastTs(); !ok || ts != 500 {
		t.Fatalf("LastTs after Clear = %v, %v", ts, ok)
	}
}

func TestQueuePushAllPopAll(t *testing.T) {
	q := New("batch")
	var batch []*tuple.Tuple
	for i := 0; i < 200; i++ {
		batch = append(batch, tuple.NewData(tuple.Time(i)))
	}
	q.PushAll(batch[:50])
	q.PushAll(nil) // no-op
	for i := 0; i < 20; i++ {
		q.Pop() // move head so PushAll spans a wrap
	}
	q.PushAll(batch[50:])
	if q.Len() != 180 {
		t.Fatalf("Len = %d, want 180", q.Len())
	}
	out := q.PopAll(nil)
	if len(out) != 180 || !q.Empty() {
		t.Fatalf("PopAll returned %d, queue len %d", len(out), q.Len())
	}
	for i, tp := range out {
		if tp.Ts != tuple.Time(i+20) {
			t.Fatalf("PopAll[%d].Ts = %v", i, tp.Ts)
		}
	}
	if got := q.PopAll(out[:0]); len(got) != 0 {
		t.Fatal("PopAll on empty queue must return dst unchanged")
	}
	st := q.Stats()
	if st.Pushes != 200 || st.Pops != 200 {
		t.Fatalf("batch stats = %+v", st)
	}
}

func TestGroupIncrementalTotal(t *testing.T) {
	a, b := New("a"), New("b")
	a.Push(tuple.NewData(1)) // pre-Add occupancy must join the total
	g := NewGroup(a, b)
	if g.Total() != 1 {
		t.Fatalf("initial total = %d", g.Total())
	}
	var batch []*tuple.Tuple
	for i := 0; i < 10; i++ {
		batch = append(batch, tuple.NewData(tuple.Time(i)))
	}
	b.PushAll(batch)
	if g.Total() != 11 {
		t.Fatalf("total after PushAll = %d", g.Total())
	}
	g.Observe()
	if g.Peak() != 11 {
		t.Fatalf("peak = %d", g.Peak())
	}
	a.Pop()
	b.PopAll(nil)
	if g.Total() != 0 {
		t.Fatalf("total after drain = %d", g.Total())
	}
	b.Push(tuple.NewData(1))
	b.Clear()
	if g.Total() != 0 {
		t.Fatalf("total after Clear = %d", g.Total())
	}
	if g.Peak() != 11 {
		t.Fatalf("peak after drain = %d", g.Peak())
	}
	// A queue may feed several groups.
	g2 := NewGroup(b)
	b.Push(tuple.NewData(2))
	if g.Total() != 1 || g2.Total() != 1 {
		t.Fatalf("multi-group totals = %d, %d", g.Total(), g2.Total())
	}
}

// Property: for any sequence of pushes and pops, the queue behaves exactly
// like a slice-based FIFO.
func TestQueueMatchesReferenceModel(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		q := New("prop")
		var ref []*tuple.Tuple
		n := 0
		for _, push := range ops {
			if push {
				tp := tuple.NewData(tuple.Time(n))
				n++
				q.Push(tp)
				ref = append(ref, tp)
			} else {
				got := q.Pop()
				if len(ref) == 0 {
					if got != nil {
						return false
					}
					continue
				}
				want := ref[0]
				ref = ref[1:]
				if got != want {
					return false
				}
			}
			if q.Len() != len(ref) {
				return false
			}
			if (q.Peek() == nil) != (len(ref) == 0) {
				return false
			}
			if len(ref) > 0 && q.Peek() != ref[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueueShedOldest(t *testing.T) {
	q := New("shed")
	// data(0) data(1) punct(5) data(10) data(11)
	for _, ts := range []tuple.Time{0, 1} {
		q.Push(tuple.NewData(ts))
	}
	q.Push(tuple.NewPunct(5))
	for _, ts := range []tuple.Time{10, 11} {
		q.Push(tuple.NewData(ts))
	}
	if got := q.ShedOldest(3); got != 3 {
		t.Fatalf("shed %d, want 3", got)
	}
	// Punctuation survives at the front, ahead of the remaining data tuple.
	if q.Len() != 2 || q.DataLen() != 1 {
		t.Fatalf("len=%d data=%d after shed", q.Len(), q.DataLen())
	}
	if front := q.Pop(); !front.IsPunct() || front.Ts != 5 {
		t.Fatalf("front after shed = %v, want punct(5)", front)
	}
	if rest := q.Pop(); rest.IsPunct() || rest.Ts != 11 {
		t.Fatalf("second after shed = %v, want data(11)", rest)
	}
	// Shedding more than the data on hand stops at zero.
	q.Push(tuple.NewData(20))
	if got := q.ShedOldest(10); got != 1 {
		t.Errorf("over-shed removed %d, want 1", got)
	}
	if got := q.ShedOldest(1); got != 0 {
		t.Errorf("shedding an empty queue removed %d", got)
	}
}

func TestQueueShedOldestGroupAccounting(t *testing.T) {
	q := New("shedg")
	g := NewGroup(q)
	for i := 0; i < 6; i++ {
		q.Push(tuple.NewData(tuple.Time(i)))
	}
	q.Push(tuple.NewPunct(100))
	if g.Total() != 7 {
		t.Fatalf("group total = %d", g.Total())
	}
	q.ShedOldest(4)
	if g.Total() != 3 {
		t.Errorf("group total after shed = %d, want 3", g.Total())
	}
	// Stats: the retained punct must not inflate pop/punctOut counters.
	st := q.Stats()
	if st.PunctOut != 0 {
		t.Errorf("punctOut = %d after shed kept the punct", st.PunctOut)
	}
	if st.Pops != 4 {
		t.Errorf("pops = %d, want 4 (shed tuples only)", st.Pops)
	}
}
