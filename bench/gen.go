package main

import (
	"math"
	"math/bits"
)

// rng is splitmix64: one add and three multiplies per draw, so drawing a
// tuple's values costs about a nanosecond and the generator stays a small,
// constant share of the driver's work.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	return mix64(uint64(*r))
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// keySpace is the number of distinct k values: a 20 ms window at 50 000
// tuples/s per side holds about 1000 tuples, so a probe meets about one match.
const keySpace = 1024

// tape is the workload's input as a pure function of the seed: the paced
// schedule and the value stream. The driver and the reference each replay
// their own tape; neither sees the other's state.
type tape struct {
	w    *workload
	vals rng
	// sched holds the paced arrivals' due times in ns from the start of
	// feeding, warm-up included. Arrivals past the end are saturated ones.
	sched []int64
}

func newTape(w *workload, seed uint64, horizon int64) *tape {
	tp := &tape{w: w, vals: rng(mix64(seed))}
	gaps := rng(mix64(seed ^ 0xA5A5A5A5A5A5A5A5))
	mean := 1e9 / w.arrivalsPerSec
	for due := int64(0); ; {
		// Poisson arrivals: exponential gaps. 1-u is in (0,1], so the log is finite.
		u := float64(gaps.next()>>11) / (1 << 53)
		due += int64(-math.Log(1-u)*mean) + 1
		if due >= horizon {
			return tp
		}
		tp.sched = append(tp.sched, due)
	}
}

// draw returns the next tuple's key and payload.
func (tp *tape) draw() (k, x int64) {
	v := tp.vals.next()
	return int64(v % keySpace), int64(v >> 11)
}

// lanes reports which streams arrival i feeds, as the range [lo, hi).
func (tp *tape) lanes(i int64) (lo, hi int) {
	if n := tp.w.slowEvery; n > 0 {
		if i%n == n-1 {
			return 1, 2
		}
		return 0, 1
	}
	return 0, len(tp.w.streams)
}

// ts returns the external timestamp, in µs from the start of feeding, of
// tuple j of arrival i. A paced arrival carries its due time; a saturated one
// steps on from the last paced timestamp, so the window population stays what
// it was in the paced phase however fast the engine accepts input.
func (tp *tape) ts(i int64, j int) int64 {
	n := int64(len(tp.sched))
	if i < n {
		return tp.sched[i] / 1000
	}
	return tp.sched[n-1]/1000 + tp.w.stepUs*((i-n)*int64(tp.w.burst)+int64(j)+1)
}

// rowHash folds one input row into 64 bits. Sums of row hashes compare two
// multisets without regard to order.
func rowHash(k, x int64) uint64 {
	return mix64(uint64(k)*0x9E3779B97F4A7C15 ^ mix64(uint64(x)))
}

// pairHash folds a join result's two sides; it is not symmetric, so a result
// with its sides swapped does not pass.
func pairHash(l, r uint64) uint64 {
	return mix64(l ^ bits.RotateLeft64(r, 31))
}
