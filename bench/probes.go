package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	streammill "repro"
	"repro/internal/buffer"
	"repro/internal/tsm"
	"repro/internal/tuple"
	"repro/internal/window"
	"repro/internal/wire"
)

// Layer probes replay the workload's own generated inputs through one
// layer's public API on one goroutine. Each reports the cost of that layer
// alone, to set beside the end-to-end numbers it is part of.

// probeDriver is a driver with no engine behind it: build works, send does not.
func probeDriver(w *workload, seed uint64, horizon int64) *driver {
	return &driver{tp: newTape(w, seed, horizon), batch: make([][]*tuple.Tuple, len(w.streams))}
}

// discard gives the tuples of the arrival just built back the way the live
// run's consumer would: over the wire the client returns them to the pool; in
// process nobody does.
func (d *driver) discard(lo, hi int) (n int) {
	for s := lo; s < hi; s++ {
		if d.tp.w.net {
			for _, t := range d.batch[s] {
				tuple.Put(t)
			}
		}
		n += len(d.batch[s])
	}
	return n
}

// per returns elapsed time per item in ns.
func per(start time.Time, n int) float64 { return float64(time.Since(start)) / float64(n) }

// probeGen times the generator alone: draw, take a tuple, append.
func probeGen(w *workload, seed uint64, tuples int) float64 {
	d := probeDriver(w, seed, int64(time.Second))
	n := 0
	start := time.Now()
	for i := int64(0); n < tuples; i++ {
		n += d.discard(d.build(i, 0))
	}
	return per(start, n)
}

// replayExec feeds arrivals [from, to) of the seed's tape through the
// workload's plan on the single-threaded internal/exec engine: operator work
// without goroutines, channels or batching. Each tuple's due column holds its
// arrival index. Arrivals before from are drawn and dropped, so the values
// are the ones the live run fed at the same index.
func replayExec(w *workload, seed uint64, horizon, from, to int64, onRow func(*tuple.Tuple, tuple.Time)) error {
	eng := streammill.NewEngine()
	for _, ddl := range w.ddl {
		if _, err := eng.Execute(ddl, nil); err != nil {
			return err
		}
	}
	if _, err := eng.Execute(w.query, onRow); err != nil {
		return err
	}
	var now tuple.Time
	ex, err := eng.Build(streammill.OnDemandETS, func() tuple.Time { return now })
	if err != nil {
		return err
	}
	d := probeDriver(w, seed, horizon)
	for i := int64(0); i < to; i++ {
		lo, hi := d.build(i, i)
		if i < from {
			d.discard(lo, hi)
			continue
		}
		// The virtual clock follows the input: an external stream's own
		// timestamps, or one tick per arrival for an internal one.
		now++
		if w.ts == tuple.External {
			now = d.batch[lo][w.burst-1].Ts
		}
		for s := lo; s < hi; s++ {
			src, err := eng.Source(w.streams[s])
			if err != nil {
				return err
			}
			for _, t := range d.batch[s] {
				src.Ingest(t, now)
			}
		}
		ex.Run(1 << 30)
	}
	for _, name := range w.streams {
		src, err := eng.Source(name)
		if err != nil {
			return err
		}
		src.Offer(tuple.EOS())
	}
	ex.Run(1 << 30)
	return nil
}

// probeExec runs up to maxTuples of the saturated phase's inputs through
// replayExec and returns CPU ns and heap allocations per input tuple.
func probeExec(res *runResult, seed uint64, horizon int64, maxTuples int) (cpu, allocs float64, err error) {
	w := res.tape.w
	from := int64(len(res.tape.sched))
	n := res.marks[2].fed - res.marks[1].fed
	if n > uint64(maxTuples) {
		n = uint64(maxTuples)
	}
	arrivals := int64(n) / int64(w.tuplesPerArrival())
	if arrivals == 0 {
		return 0, 0, nil
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := cpuNs()
	rows := 0
	err = replayExec(w, seed, horizon, from, from+arrivals, func(*tuple.Tuple, tuple.Time) { rows++ })
	c1 := cpuNs()
	runtime.ReadMemStats(&ms1)
	if err == nil && rows == 0 {
		err = fmt.Errorf("exec probe: no result rows from %d arrivals", arrivals)
	}
	fed := float64(arrivals * int64(w.tuplesPerArrival()))
	return float64(c1-c0) / fed, float64(ms1.Mallocs-ms0.Mallocs) / fed, err
}

// probeWindow replays the join's key and timestamp sequence through two
// HashStores the way the join drives them: expire and probe the opposite
// side, insert into the own side.
func probeWindow(w *workload, seed uint64, horizon int64, tuples int) (nsPerTuple float64, peak int) {
	if w.plan != planJoin {
		return 0, 0
	}
	d := probeDriver(w, seed, horizon)
	spec := window.TimeWindow(tuple.Time(w.span))
	win := [2]*window.HashStore{window.NewHashStore(spec, 0), window.NewHashStore(spec, 0)}
	n, matches := 0, 0
	var spent time.Duration
	for i := int64(len(d.tp.sched)); n < tuples; i++ {
		d.build(i, 0) // outside the timed part: the generator is its own probe
		start := time.Now()
		for j := 0; j < w.burst; j++ {
			for s := 0; s < 2; s++ {
				t := d.batch[s][j]
				win[1-s].ExpireTo(t.Ts)
				win[1-s].Probe(t.Vals[0], func(*tuple.Tuple) { matches++ })
				win[s].Insert(t)
				n++
			}
		}
		spent += time.Since(start)
	}
	peak = win[0].Peak()
	if p := win[1].Peak(); p > peak {
		peak = p
	}
	return float64(spent) / float64(n), peak
}

// probeTuple times the tuple pool two ways: drawing fresh tuples that are
// never returned (what the engine's row plane does without Recycle), and a
// Get/Put round trip (what the client does around each frame).
func probeTuple(tuples int) (newNs, getPutNs float64) {
	fill := func(t *tuple.Tuple) {
		t.Vals = append(t.Vals, tuple.Int(1), tuple.Int(2), tuple.Int(3))
	}
	const keep = 1024
	ring := make([]*tuple.Tuple, keep) // keeps each tuple live a while, as a queue would
	start := time.Now()
	for i := 0; i < tuples; i++ {
		t := tuple.Get()
		fill(t)
		ring[i%keep] = t
	}
	newNs = per(start, tuples)
	start = time.Now()
	for i := 0; i < tuples; i++ {
		t := tuple.Get()
		fill(t)
		tuple.Put(t)
	}
	return newNs, per(start, tuples)
}

// probeBuffer times an arc's queue the way the runtime uses it: PushAll of a
// default batch, PopAll of the same.
func probeBuffer(tuples int) float64 {
	const batch = 64
	in := make([]*tuple.Tuple, batch)
	for i := range in {
		in[i] = tuple.NewData(tuple.Time(i), tuple.Int(1))
	}
	q := buffer.New("probe")
	out := make([]*tuple.Tuple, 0, batch)
	start := time.Now()
	for i := 0; i < tuples/batch; i++ {
		q.PushAll(in)
		out = q.PopAll(out[:0])
	}
	return per(start, tuples/batch*batch)
}

// probeETS times one on-demand ETS decision of the workload's timestamp kind.
func probeETS(w *workload, calls int) float64 {
	est := tsm.NewInternalEstimator()
	if w.ts == tuple.External {
		est = tsm.NewExternalEstimator(tuple.Second)
		est.ObserveTuple(0, 0)
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		// The clock runs ahead of δ so that every call yields a new bound.
		if ets, ok := est.ETS(2*tuple.Second + tuple.Time(i)); ok {
			est.Emit(ets)
		}
	}
	return per(start, calls)
}

// probeWire encodes the workload's tuples in the client's default frames of
// 256 and decodes them back.
func probeWire(w *workload, seed uint64, tuples int) (encNs, decNs, bytesPerTuple float64) {
	if !w.net {
		return 0, 0, 0
	}
	const frame = 256
	d := probeDriver(w, seed, int64(time.Second))
	var buf bytes.Buffer
	wr := wire.NewWriter(&buf)
	batch := make([]*tuple.Tuple, 0, frame)
	n := 0
	var spent time.Duration
	for i := int64(0); n < tuples; i++ {
		lo, _ := d.build(i, i)
		batch = append(batch, d.batch[lo]...)
		if len(batch) < frame {
			continue
		}
		start := time.Now()
		err := wr.WriteFrame(wire.Tuples{ID: 1, Batch: batch})
		if err == nil {
			err = wr.Flush()
		}
		spent += time.Since(start)
		if err != nil {
			return 0, 0, 0
		}
		n += len(batch)
		for _, t := range batch {
			tuple.Put(t)
		}
		batch = batch[:0]
	}
	encNs = float64(spent) / float64(n)
	bytesPerTuple = float64(buf.Len()) / float64(n)

	rd := wire.NewReader(&buf)
	start := time.Now()
	for {
		f, err := rd.Next()
		if err != nil {
			break
		}
		for _, t := range f.(wire.Tuples).Batch {
			rd.Release(t)
		}
	}
	return encNs, per(start, n), bytesPerTuple
}
