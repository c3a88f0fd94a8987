package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/tuple"
)

// clock is the harness's one time base. The engine and the server read it in
// µs; the sink reads it in ns, because a median near 100 µs needs finer steps
// than tuple.Time has.
type clock struct{ base time.Time }

func (c clock) ns() int64      { return int64(time.Since(c.base)) }
func (c clock) us() tuple.Time { return tuple.Time(c.ns() / 1000) }

// hist is a log-linear histogram of ns values: 128 buckets per octave, so a
// percentile read back by interpolation is within 0.4 % of the sample it
// stands for, at constant memory however many rows a saturated window sinks.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSub     = 128
	histBuckets = histSub * 36 // values up to 2^42 ns, over an hour
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e is in [128, 256)
	i := histSub*(e+1) + int(v>>uint(e)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histLow is the smallest value bucket i holds.
func histLow(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub - 1
	return float64(int64(histSub+i%histSub) << uint(e))
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

// quantile returns the q-quantile in ns, interpolated inside its bucket, and
// 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histLow(i), histLow(i+1)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return histLow(histBuckets)
}

// satSample is how many saturated-phase rows share one latency sample: the
// clock read is the sink callback's dearest step, and a backlog's latency
// needs no more than every sixteenth row.
const satSample = 16

// recorder is the sink side of the harness. onRow runs on the sink's
// goroutine alone; everything else reads the recorder after the engine has
// drained.
type recorder struct {
	clk     clock
	windows int
	window  int64 // ns
	// slot is the pause before each saturated window, which the gauge fills.
	slot int64
	// pacedStart and pacedEnd bound the paced phase's due times; a due time
	// at or past pacedEnd is a saturated tuple's.
	pacedStart, pacedEnd int64
	satStart             atomic.Int64

	tallies [numPhases]tally
	lat     [numPhases][]hist // per window; the warm-up has none
	lastTs  tuple.Time
	// disorder counts rows whose timestamp is below the previous row's.
	disorder uint64
	skip     uint

	// wire, when set (traced net run), maps a row back to the instant its
	// frame was written.
	wire *wireTimes
}

func newRecorder(clk clock, windows int, window, slot time.Duration) *recorder {
	r := &recorder{clk: clk, windows: windows, window: int64(window), slot: int64(slot), lastTs: tuple.MinTime}
	r.lat[phasePaced] = make([]hist, windows)
	r.lat[phaseSat] = make([]hist, windows)
	return r
}

func (r *recorder) onRow(t *tuple.Tuple, _ tuple.Time) {
	v := t.Vals
	var due int64
	var h uint64
	if len(v) == 6 { // a join result: the left row, then the right one
		due = v[2].AsInt()
		if d := v[5].AsInt(); d > due {
			due = d
		}
		h = pairHash(rowHash(v[0].AsInt(), v[1].AsInt()), rowHash(v[3].AsInt(), v[4].AsInt()))
	} else {
		due = v[2].AsInt()
		h = rowHash(v[0].AsInt(), v[1].AsInt())
	}
	if t.Ts < r.lastTs {
		r.disorder++
	}
	r.lastTs = t.Ts

	switch {
	case due < r.pacedStart:
		r.tallies[phaseWarm].add(h)
	case due < r.pacedEnd:
		r.tallies[phasePaced].add(h)
		now := r.clk.ns()
		r.lat[phasePaced][r.windowOf(due-r.pacedStart, r.window)].record(now - due)
		if r.wire != nil {
			r.wire.sunk(v[1].AsInt(), now)
		}
	default:
		r.tallies[phaseSat].add(h)
		if r.skip++; r.skip%satSample == 0 {
			r.lat[phaseSat][r.windowOf(due-r.satStart.Load(), r.slot+r.window)].record(r.clk.ns() - due)
		}
	}
}

// windowOf returns the window an offset from the phase's start falls in,
// stride being the time from one window's start to the next's.
func (r *recorder) windowOf(offset, stride int64) int {
	w := int(offset / stride)
	if w >= r.windows {
		return r.windows - 1
	}
	return w
}

// windowQuantiles returns each window's q-quantile in µs, 0 for a window that
// saw no rows.
func (r *recorder) windowQuantiles(phase int, q float64) []float64 {
	out := make([]float64, len(r.lat[phase]))
	for i := range out {
		out[i] = r.lat[phase][i].quantile(q) / 1000
	}
	return out
}

// present returns the values of xs that are not 0: the windows that have one.
func present(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x != 0 {
			out = append(out, x)
		}
	}
	return out
}

func (r *recorder) samples(phase int) uint64 {
	var n uint64
	for i := range r.lat[phase] {
		n += r.lat[phase][i].n
	}
	return n
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) and 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	return quantileOf(xs, 0.5)
}

// quantileOf returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}
