package runtime

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// srcSink builds src → sink, the smallest graph with a source inlet.
func srcSink(sink func(*tuple.Tuple, tuple.Time)) (*graph.Graph, *ops.Source) {
	g := graph.New("inlet")
	src := ops.NewSource("src", intSchema("s", tuple.External), 0)
	g.AddNode(ops.NewSink("k", sink), g.AddNode(src))
	return g, src
}

// nodeSnap is the named node's entry in a fresh snapshot.
func nodeSnap(e *Engine, name string) *NodeSnapshot {
	s := e.Snapshot()
	return s.Node(name)
}

// waitDone fails the test if done does not close within d.
func waitDone(t *testing.T, d time.Duration, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// A producer's slice may carry punctuation anywhere, not only last: every
// bound in it counts toward the source's punctuation total, arc watermark
// and lag reservoir.
func TestSourceAccountsEveryPunctuationInASlice(t *testing.T) {
	col := &collector{}
	g, src := srcSink(col.add)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.IngestBatch(src, []*tuple.Tuple{
		tuple.NewPunct(10), tuple.NewData(11, tuple.Int(1)),
		tuple.NewPunct(20), tuple.NewData(21, tuple.Int(2)),
	})
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	ns := nodeSnap(e, "src")
	if ns.PunctIn != 3 { // two bounds and EOS
		t.Errorf("source PunctIn = %d, want 3", ns.PunctIn)
	}
	if a := ns.Arcs[0]; a.Watermark != 20 || a.Lag.Count != 2 {
		t.Errorf("source arc watermark %v with %d lag samples, want 20 with 2", a.Watermark, a.Lag.Count)
	}
	if n := len(col.snapshot()); n != 2 {
		t.Errorf("delivered %d rows, want 2", n)
	}
}

// Concurrent producers on one source, per-tuple and batched, interleave
// freely, but each producer's tuples reach the sink in its own call order
// and none is lost or duplicated.
func TestInletConcurrentProducersKeepFIFO(t *testing.T) {
	const producers, per = 4, 3000
	col := &collector{}
	g, src := srcSink(col.add)
	e, err := New(g, Options{OnDemandETS: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var batch []*tuple.Tuple
			for i := 0; i < per; i++ {
				// Vals: producer, sequence; ts keeps the external stream ordered.
				tp := tuple.NewData(tuple.Time(i), tuple.Int(int64(p)), tuple.Int(int64(i)))
				if p%2 == 0 {
					e.Ingest(src, tp)
					continue
				}
				if batch = append(batch, tp); len(batch) == 13*p {
					e.IngestBatch(src, batch)
					batch = batch[:0]
				}
			}
			e.IngestBatch(src, batch)
		}(p)
	}
	wg.Wait()
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	got := col.snapshot()
	if len(got) != producers*per {
		t.Fatalf("delivered %d, want %d", len(got), producers*per)
	}
	next := make([]int64, producers)
	for _, tp := range got {
		p, i := tp.Vals[0].AsInt(), tp.Vals[1].AsInt()
		if i != next[p] {
			t.Fatalf("producer %d: got sequence %d, want %d", p, i, next[p])
		}
		next[p]++
	}
}

// Tuples pending in the inlet ahead of CloseStream — here appended before
// the source goroutine even exists — all reach the sink before EOS ends the
// stream, and the backlog is visible while they wait.
func TestInletCloseStreamDrainsPending(t *testing.T) {
	col := &collector{}
	g, src := srcSink(col.add)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = inletCap - 1 // with EOS, exactly a full inlet
	for i := 0; i < n; i++ {
		e.Ingest(src, tuple.NewData(tuple.Time(i), tuple.Int(int64(i))))
	}
	e.CloseStream(src)
	if b := nodeSnap(e, "src").ChanBacklog; b != inletCap {
		t.Errorf("source ChanBacklog = %d, want %d", b, inletCap)
	}
	gauge := -1.0
	for _, m := range e.Registry().Snapshot() {
		if name, labels := metrics.SplitName(m.Name); name == "sm_node_chan_backlog" && strings.Contains(labels, `node="src"`) {
			gauge = m.Value
		}
	}
	if gauge != inletCap {
		t.Errorf("sm_node_chan_backlog{node=src} = %v, want %d", gauge, inletCap)
	}
	e.Start()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	got := col.snapshot()
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, tp := range got {
		if tp.Vals[0].AsInt() != int64(i) {
			t.Fatalf("row %d = %v, out of order", i, tp)
		}
	}
}

// An IngestBatch longer than the inlet's capacity is admitted whole into an
// empty inlet (here: before Start, and again once the source has taken the
// first), never waiting for room that cannot exist.
func TestInletOversizedBatchAdmitted(t *testing.T) {
	col := &collector{}
	g, src := srcSink(col.add)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := func(lo int) []*tuple.Tuple {
		b := make([]*tuple.Tuple, 3*inletCap)
		for i := range b {
			b[i] = tuple.NewData(tuple.Time(lo+i), tuple.Int(int64(lo+i)))
		}
		return b
	}
	e.IngestBatch(src, big(0)) // nothing takes yet: must not block
	if b := nodeSnap(e, "src").ChanBacklog; b != 3*inletCap {
		t.Fatalf("source ChanBacklog = %d, want %d", b, 3*inletCap)
	}
	e.Start()
	done := make(chan struct{})
	go func() {
		e.IngestBatch(src, big(3*inletCap))
		e.CloseStream(src)
		e.Wait()
		close(done)
	}()
	waitDone(t, 10*time.Second, "oversized IngestBatch + drain", done)
	if got := len(col.snapshot()); got != 6*inletCap {
		t.Fatalf("delivered %d, want %d", got, 6*inletCap)
	}
}

// stalledSink builds src → sink whose callback blocks until the returned
// gate closes, and starts a producer that Ingests total tuples one at a time
// into it. fed counts completed Ingest calls; producerDone closes when the
// producer returns.
func stalledSink(t *testing.T, opts Options, total int) (e *Engine, col *collector, gate chan struct{}, fed *atomic.Int64, producerDone chan struct{}) {
	t.Helper()
	col = &collector{}
	gate = make(chan struct{})
	g, src := srcSink(func(tp *tuple.Tuple, now tuple.Time) {
		<-gate
		col.add(tp, now)
	})
	e, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	fed = new(atomic.Int64)
	producerDone = make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 0; i < total; i++ {
			e.Ingest(src, tuple.NewData(tuple.Time(i), tuple.Int(int64(i))))
			fed.Add(1)
		}
		e.CloseStream(src)
	}()
	// The sink stalls on its first row; the source fills the sink's channel
	// and blocks, and the inlet fills behind it. total is several times what
	// that chain holds, so the producer cannot finish while the gate is shut.
	waitFor(t, 10*time.Second, "a full sink channel and inlet", func() bool {
		return nodeSnap(e, "k").ChanBacklog == channelDepth && nodeSnap(e, "src").ChanBacklog == inletCap
	})
	return e, col, gate, fed, producerDone
}

// Backpressure reaches the producer: with the consumer stalled, Ingest
// blocks once the inlet is full — the producer never runs more than inletCap
// tuples ahead of what the source has taken — and the source buffers at most
// MaxQueueLen + inletCap tuples.
func TestInletBackpressureBlocksIngest(t *testing.T) {
	const maxQueue, total = 100, 64 * 1024
	e, col, gate, fed, producerDone := stalledSink(t, Options{MaxQueueLen: maxQueue}, total)
	time.Sleep(50 * time.Millisecond) // a window in which a non-blocking Ingest would run ahead
	ahead := fed.Load()               // read before taken, which only grows
	taken := int64(nodeSnap(e, "src").TuplesIn)
	if ahead >= total || ahead > taken+inletCap {
		t.Fatalf("Ingest ran past a full inlet: %d of %d fed, %d taken", ahead, total, taken)
	}
	close(gate)
	waitDone(t, 30*time.Second, "producer after the consumer resumed", producerDone)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := len(col.snapshot()); got != total {
		t.Fatalf("delivered %d, want %d", got, total)
	}
	if hwm := nodeSnap(e, "src").QueueHWM; hwm > maxQueue+inletCap {
		t.Errorf("source QueueHWM %d > MaxQueueLen %d + inletCap %d", hwm, maxQueue, inletCap)
	}
}

// Stop releases a producer blocked on a full inlet: its pending and later
// Ingest calls return instead of wedging it.
func TestInletStopUnblocksProducer(t *testing.T) {
	e, _, gate, _, producerDone := stalledSink(t, Options{MaxQueueLen: 100}, 64*1024)
	e.Stop()
	waitDone(t, 10*time.Second, "blocked producer after Stop", producerDone)
	close(gate) // let the sink's goroutine see the stop
	done := make(chan struct{})
	go func() { e.Wait(); close(done) }()
	waitDone(t, 10*time.Second, "Wait after Stop", done)
}

// A checkpoint cut while both sources are saturated with per-tuple Ingest
// completes: the barrier is appended to the inlet without waiting for room.
// The barrier's MinTime placeholder is not a lag sample.
func TestCheckpointUnderSaturatedIngest(t *testing.T) {
	g, s1, s2, _, _ := buildCkptGraph()
	e, err := New(g, Options{OnDemandETS: true, MaxQueueLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	var stop atomic.Bool
	var fed atomic.Int64
	var wg sync.WaitGroup
	for _, s := range []*ops.Source{s1, s2} {
		wg.Add(1)
		go func(s *ops.Source) {
			defer wg.Done()
			for i := 1; !stop.Load(); i++ {
				e.Ingest(s, tuple.NewData(tuple.Time(i), tuple.Int(int64(i))))
				fed.Add(1)
			}
		}(s)
	}
	waitFor(t, 10*time.Second, "saturated ingest", func() bool { return fed.Load() > 4*inletCap })
	snap, err := e.Checkpoint(1, 10*time.Second)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("checkpoint under saturated ingest: %v", err)
	}
	if snap.Segment("s1") == nil || snap.Segment("s2") == nil {
		t.Fatalf("snapshot misses a source segment (%d segments)", len(snap.Segments))
	}
	e.CloseStream(s1)
	e.CloseStream(s2)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s1", "s2"} {
		if lag := nodeSnap(e, name).Arcs[0].Lag; len(lag.Samples) > 0 && lag.Samples[0] < 0 {
			t.Errorf("%s recorded a negative lag sample %d", name, lag.Samples[0])
		}
	}
}

// A sink shares one clock reading per batch, as a take does at the source:
// with the inlet taken whole, the sink side reads the engine clock at most
// once per BatchSize callbacks plus once per wake, not once per tuple. Every
// reading a callback sees is non-decreasing and not ahead of the clock.
func TestSinkReadsClockPerBatch(t *testing.T) {
	const tuples = 64000
	// Every read advances the clock, so each reading is distinct and the
	// sink's reads are the changes in the now its callback sees.
	var clock atomic.Int64
	var rows, reads int
	last := tuple.MinTime
	g, src := srcSink(func(_ *tuple.Tuple, now tuple.Time) {
		rows++
		if now != last {
			reads++
		}
		if now < last {
			t.Errorf("row %d: now %d after %d", rows, now, last)
		}
		if cur := tuple.Time(clock.Load()); now > cur {
			t.Errorf("row %d: now %d ahead of the clock at %d", rows, now, cur)
		}
		last = now
	})
	e, err := New(g, Options{Now: func() tuple.Time { return tuple.Time(clock.Add(1)) }})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*tuple.Tuple, tuples)
	for i := range batch {
		batch[i] = tuple.NewData(tuple.Time(i), tuple.Int(int64(i)))
	}
	e.IngestBatch(src, batch) // admitted whole before Start: one take
	e.Start()
	e.CloseStream(src)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if rows != tuples {
		t.Fatalf("delivered %d rows, want %d", rows, tuples)
	}
	// The only arc ends at the sink, and the sink wakes at most once per
	// batch delivered to it, plus its first pass.
	wakes := int(e.BatchesSent()) + 1
	if limit := tuples/DefaultBatchSize + wakes; reads > limit {
		t.Fatalf("sink read the clock %d times for %d rows, want ≤ %d (%d wakes)", reads, tuples, limit, wakes)
	}
	t.Logf("%d sink clock reads for %d rows in %d batches", reads, tuples, e.BatchesSent())
}
