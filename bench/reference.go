package main

// tally is an order-independent summary of a multiset of result rows.
type tally struct {
	rows uint64
	sum  uint64
}

func (t *tally) add(h uint64) {
	t.rows++
	t.sum += h
}

// Phases a tuple or result belongs to. A result belongs to the phase of its
// last contributing input.
const (
	phaseWarm = iota
	phasePaced
	phaseSat
	numPhases
)

// reference replays the first n arrivals of tp through a plain single-
// threaded implementation of the workload's plan and returns the expected
// results per phase. phaseOf maps an arrival index to its phase.
func reference(tp *tape, n int64, phaseOf func(i int64) int) [numPhases]tally {
	var out [numPhases]tally
	w := tp.w
	switch w.plan {
	case planUnion:
		// A union's result is the multiset of its inputs.
		for i := int64(0); i < n; i++ {
			for j := 0; j < w.tuplesPerArrival(); j++ {
				k, x := tp.draw()
				out[phaseOf(i)].add(rowHash(k, x))
			}
		}
	case planPipeline:
		for i := int64(0); i < n; i++ {
			for j := 0; j < w.tuplesPerArrival(); j++ {
				if k, x := tp.draw(); x%4 != 0 {
					out[phaseOf(i)].add(rowHash(k, x))
				}
			}
		}
	case planJoin:
		referenceJoin(tp, n, phaseOf, &out)
	}
	return out
}

// held is one tuple kept in a join window.
type held struct {
	ts int64
	h  uint64
}

// side is one join input's window, a FIFO per key in timestamp order.
type side [keySpace][]held

// probe drops what has left the window as of ts and returns the live tuples
// under key k. A tuple at exactly ts-span is still inside.
func (s *side) probe(k, ts, span int64) []held {
	q := s[k]
	drop := 0
	for drop < len(q) && q[drop].ts < ts-span {
		drop++
	}
	q = q[drop:]
	s[k] = q
	return q
}

// referenceJoin is a symmetric sliding-window equi-join: each tuple, taken in
// timestamp order, meets the opposite window's tuples of its key and then
// enters its own window. Equal timestamps may be taken in any order: the pair
// is found by whichever side comes second.
func referenceJoin(tp *tape, n int64, phaseOf func(i int64) int, out *[numPhases]tally) {
	w := tp.w
	var win [2]*side
	win[0], win[1] = new(side), new(side)
	type in struct{ k, x int64 }
	vals := make([][]in, 2)
	for s := range vals {
		vals[s] = make([]in, w.burst)
	}
	for i := int64(0); i < n; i++ {
		// The driver draws the left burst, then the right one.
		for s := 0; s < 2; s++ {
			for j := range vals[s] {
				vals[s][j].k, vals[s][j].x = tp.draw()
			}
		}
		ph := phaseOf(i)
		for j := 0; j < w.burst; j++ {
			ts := tp.ts(i, j)
			for s := 0; s < 2; s++ {
				v := vals[s][j]
				h := rowHash(v.k, v.x)
				for _, o := range win[1-s].probe(v.k, ts, w.span) {
					if s == 0 {
						out[ph].add(pairHash(h, o.h))
					} else {
						out[ph].add(pairHash(o.h, h))
					}
				}
				own := win[s]
				own[v.k] = append(own.probe(v.k, ts, w.span), held{ts, h})
			}
		}
	}
}
