package main

import (
	"testing"
	"time"

	"repro/internal/tuple"
)

// TestReferenceMatchesExec cross-checks each plan's plain reference against
// the single-threaded internal/exec engine, the paper's execution model, on a
// 50 000-tuple prefix that is half paced and half saturated arrivals.
func TestReferenceMatchesExec(t *testing.T) {
	const prefix = 50000
	for _, name := range []string{"union_sparse", "join_dense", "pipeline_dense"} {
		w := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			perSec := w.arrivalsPerSec * float64(w.tuplesPerArrival())
			horizon := int64(prefix / 2 / perSec * float64(time.Second))
			arrivals := int64(prefix / w.tuplesPerArrival())
			paced := int64(len(newTape(w, 7, horizon).sched))
			if paced == 0 || paced >= arrivals {
				t.Fatalf("prefix of %d arrivals has %d paced ones", arrivals, paced)
			}
			phaseOf := func(i int64) int {
				if i < paced {
					return phasePaced
				}
				return phaseSat
			}

			var got [numPhases]tally
			err := replayExec(w, 7, horizon, 0, arrivals, func(row *tuple.Tuple, _ tuple.Time) {
				v := row.Vals
				// replayExec stores the arrival index in the due column.
				if len(v) == 6 {
					i := v[2].AsInt()
					if v[5].AsInt() > i {
						i = v[5].AsInt()
					}
					got[phaseOf(i)].add(pairHash(rowHash(v[0].AsInt(), v[1].AsInt()), rowHash(v[3].AsInt(), v[4].AsInt())))
					return
				}
				got[phaseOf(v[2].AsInt())].add(rowHash(v[0].AsInt(), v[1].AsInt()))
			})
			if err != nil {
				t.Fatal(err)
			}
			want := reference(newTape(w, 7, horizon), arrivals, phaseOf)
			if got != want {
				t.Fatalf("exec %+v\nreference %+v", got, want)
			}
			if want[phasePaced].rows == 0 || want[phaseSat].rows == 0 {
				t.Fatalf("a phase has no result rows: %+v", want)
			}
		})
	}
}
