package main

import (
	"fmt"
	"math"
	"syscall"
	"unsafe"
)

// The box is a shared VM, and what its neighbours do to the memory system
// decides how fast it runs: over a quarter of an hour the same binary on the
// same input took 1086-1829 ns of CPU per join tuple, while a loop of
// register arithmetic moved 5 % and a loop of random read-modify-writes over
// 32 MB moved with the workload (correlation 0.83-0.97 over thirty-six runs
// of three workloads; README, "The gauge"). So every run times that second
// loop, the gauge, beside everything it measures: in pauses around the groups
// of set-up cycles and around every saturated window, and in the waits of the
// paced phase. It reports its timing metrics at the speed of a quiet box: a
// time is divided by the slowdown the gauge saw beside it, a rate multiplied
// by it, and the paced latency divided by its square root (followsLatency).
// The slowdowns themselves are printed and are per-layer metrics, so the
// measured values can be had back.

const (
	// gaugeWords is the table's length: 32 MB, sixteen times a core's L2 and
	// an eighth of the L3 the box shares with its neighbours.
	gaugeWords = 1 << 22
	// gaugeChunk is the number of read-modify-writes one chunk makes, about a
	// microsecond's worth, so that a paced send waits for a chunk at most
	// that long.
	gaugeChunk = 40
	// gaugeRefNs is what one chunk and the clock read after it take on this
	// box when it is quiet. It only sets the scale: a slowdown of 1 is that
	// box.
	gaugeRefNs = 900
	// gaugeStallNs is the chunk time past which the thread was taken off the
	// core: forty misses all the way to memory stay under a quarter of it.
	// Such a chunk says nothing about the memory system and is dropped; what
	// a stall does to the workload is the windows' medians' to absorb.
	gaugeStallNs = 20_000
	// gaugeEvery is the duty cycle: of the time the driver waits it gauges
	// one part in gaugeEvery and spins on the clock for the rest, which
	// leaves the engine the memory system nearly to itself in the paced
	// phase and still times tens of thousands of chunks per window.
	gaugeEvery = 8
	// gaugeGuardNs is how close to a due time the driver starts no chunk.
	gaugeGuardNs = 4_000
)

// speed is a count of gauge chunks and the time they took.
type speed struct{ chunks, ns int64 }

func (s speed) plus(o speed) speed { return speed{s.chunks + o.chunks, s.ns + o.ns} }

// slowdown is how many times longer a chunk took than on the quiet box, and
// 0 if no chunk was timed.
func (s speed) slowdown() float64 {
	if s.chunks == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.chunks) / gaugeRefNs
}

// gauge is the table and the generator that walks it. The table is mapped
// outside the Go heap: 32 MB of live heap would let the collector sleep
// through allocations that cost a streamd user a cycle.
type gauge struct {
	mem   []byte
	table []uint64
	x     uint64
	// next is the harness ns before which a wait gauges nothing.
	next int64
}

func newGauge() (*gauge, error) {
	mem, err := syscall.Mmap(-1, 0, gaugeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the gauge's table: %w", err)
	}
	g := &gauge{mem: mem, table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), gaugeWords), x: 1}
	for i := range g.table {
		g.table[i] = uint64(i) // fault every page in before anything is timed
	}
	return g, nil
}

func (g *gauge) close() {
	g.table = nil
	_ = syscall.Munmap(g.mem) // a table left mapped costs the process 32 MB and nothing else
}

// chunk makes gaugeChunk read-modify-writes at random places in the table.
// The places do not depend on what is read, so the misses overlap as a
// program's independent loads do.
func (g *gauge) chunk() {
	x, t := g.x, g.table
	for i := 0; i < gaugeChunk; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		t[(x>>20)&(gaugeWords-1)] += x
	}
	g.x = x
}

// wait spins until due and returns the time it saw then, gauging into s for
// one part in gaugeEvery of the wait: a chunk, the clock read that times it,
// then clock reads alone for seven times as long. A chunk in which the thread
// stalled is left out. Every stretch is gauged this way, the paced phase's
// waits and the pauses made for the gauge alike, because a chunk after a
// pause costs more than one of a row of chunks, whose misses overlap with
// their neighbours'.
func (g *gauge) wait(clk clock, due int64, s *speed) int64 {
	now := clk.ns()
	for now < due {
		if now < g.next || due-now < gaugeGuardNs {
			now = clk.ns()
			continue
		}
		g.chunk()
		t := clk.ns()
		if dt := t - now; dt < gaugeStallNs {
			s.chunks++
			s.ns += dt
		}
		g.next = t + (gaugeEvery-1)*(t-now)
		now = t
	}
	return now
}

// How far a metric follows the box's slowdown: it is reported divided by the
// slowdown to this power.
const (
	// followsTime is a time's that is work from end to end: CPU time per
	// tuple, a set-up.
	followsTime = 1.0
	// followsRate is a rate's.
	followsRate = -1.0
	// followsLatency is the paced latency's. Part of a paced result's time is
	// the hand-off from the driver's thread to the engine's, a futex wake and
	// an interrupt to a halted virtual CPU, which the memory system does not
	// slow; and the gauge's reading in the paced phase's short waits is the
	// less steady of the two. Over the sixty runs behind the README's table
	// the three in-process workloads' spreads were 9-25 % as measured,
	// 7-27 % divided by the slowdown and 5-11 % divided by its square root.
	followsLatency = 0.5
)

// atQuietSpeed scales per-window values to the quiet box: each is divided by
// its window's slowdown to the power follows. A window without a value or
// without a slowdown (both 0) is left out.
func atQuietSpeed(vals, slow []float64, follows float64) []float64 {
	var out []float64
	for i, v := range vals {
		if v != 0 && slow[i] != 0 {
			out = append(out, v/math.Pow(slow[i], follows))
		}
	}
	return out
}
