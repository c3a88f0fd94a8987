// The crash drills live in an external test package: internal/runtime imports
// internal/ckpt, so package ckpt itself cannot import the engine.
package ckpt_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tuple"
)

const (
	// drillDelta is the external skew bound δ. The drills' event timestamps
	// are synthetic (1µs per tuple) and unrelated to the wall clock, so the
	// estimator's skew extrapolation (lastTs + elapsed − δ) must be pinned
	// down: a δ larger than any run's wall time clamps every promise to
	// lastTs — sound for the strictly increasing feed, and deterministic, so
	// the reference and crash runs deliver identical output.
	drillDelta   = tuple.Time(1) << 40
	drillWindow  = 64  // aggregate window width (µs of event time)
	drillChunk   = 256 // tuples per source between checkpoint opportunities
	drillTimeout = 10 * time.Second
)

// checksum is the sink-side commutative checksum: order-independent (the
// union's tie-breaking between equal timestamps is scheduling-dependent) but
// sensitive to any lost or duplicated result. It rides the sink's checkpoint
// segment via StateHooks, so a restored run resumes the count at the same cut
// as the operators.
type checksum struct{ count, sum, sq uint64 }

func (c *checksum) add(t *tuple.Tuple) {
	v := uint64(t.Ts)
	if len(t.Vals) > 0 && t.Vals[0].Kind() == tuple.IntKind {
		v = v*1_000_003 + uint64(t.Vals[0].AsInt())
	}
	c.count++
	c.sum += v
	c.sq += v * v
}

func (c *checksum) save(e *ckpt.Encoder) { e.U64(c.count); e.U64(c.sum); e.U64(c.sq) }

func (c *checksum) restore(d *ckpt.Decoder) error {
	c.count, c.sum, c.sq = d.U64(), d.U64(), d.U64()
	return d.Err()
}

// sink returns a sink that folds every delivery into c and carries c in its
// checkpoint segment.
func (c *checksum) sink() *ops.Sink {
	k := ops.NewSink("k", func(t *tuple.Tuple, _ tuple.Time) { c.add(t) })
	k.StateHooks(c.save, c.restore)
	return k
}

// drillEngine builds the checkpointable workload — two external sources
// feeding a TSM union, optionally a tumbling count aggregate (stateful: open
// windows), and the given sink — on an engine that is not yet started. On-demand ETS must be on: after a barrier aligns at the union, one
// input's register is frozen at the barrier bound, and only the demand path
// (or fresh traffic) advances it (DESIGN.md §14).
func drillEngine(t *testing.T, aggregate bool, sink *ops.Sink) (*runtime.Engine, [2]*ops.Source) {
	t.Helper()
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind}).
		WithTS(tuple.External)
	g := graph.New("ckpt")
	srcs := [2]*ops.Source{
		ops.NewSource("s1", sch, drillDelta),
		ops.NewSource("s2", sch, drillDelta),
	}
	a := g.AddNode(srcs[0])
	b := g.AddNode(srcs[1])
	up := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), a, b)
	if aggregate {
		up = g.AddNode(ops.NewAggregate("agg", nil, drillWindow, -1, ops.AggSpec{Fn: ops.Count}), up)
	}
	g.AddNode(sink, up)
	e, err := runtime.New(g, runtime.Options{OnDemandETS: true, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	return e, srcs
}

// drillTuple is the deterministic feed: tuple i (0-based) carries ts i+1 µs,
// and therefore sequence number i+1 at its source — index w..n-1 is exactly
// the replay range above a restored watermark w.
func drillTuple(i int) *tuple.Tuple {
	return tuple.NewData(tuple.Time(i+1), tuple.Int(int64(i)))
}

// feed ingests tuples from..n-1 into both sources, interleaved, skipping on
// each source what its watermark says a checkpoint already holds.
func feed(e *runtime.Engine, srcs [2]*ops.Source, from, n int, marks [2]uint64) {
	for i := from; i < n; i++ {
		for k, s := range srcs {
			if uint64(i) >= marks[k] {
				e.Ingest(s, drillTuple(i))
			}
		}
	}
}

func drain(t *testing.T, e *runtime.Engine, srcs [2]*ops.Source) {
	t.Helper()
	e.CloseStream(srcs[0])
	e.CloseStream(srcs[1])
	if err := e.Wait(); err != nil {
		t.Fatalf("engine failed: %v", err)
	}
}

// TestKillRestoreVerify is the crash drill: feed the workload while
// checkpoints are cut, kill the engine abruptly after a seed-chosen chunk (no
// drain, no EOS), restore a fresh graph from the store's latest checkpoint,
// replay each source above its restored sequence watermark, and require the
// sink's checksum to equal a clean reference run exactly — no tuple lost,
// none duplicated.
//
// Both cases are deterministic in what they assert. With the aggregate
// downstream the feeder itself cuts the checkpoints between chunks, so both
// sources cut at the same sequence number and the union's stash stays empty;
// under a free-running coordinator the cuts skew, the union's output arc
// leaves timestamp order (DESIGN.md §14 "Known defect",
// TestCheckpointUnderTrafficKeepsArcOrder) and an aggregate would late-drop
// the replayed stash. The multiset survives skewed cuts, which the second
// case holds to: union → sink under a concurrent 10ms coordinator.
func TestKillRestoreVerify(t *testing.T) {
	for _, tc := range []struct {
		name       string
		aggregate  bool
		concurrent bool
	}{
		{"union-aggregate/feeder-cut", true, false},
		{"union-sink/concurrent-coordinator", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				chunks   = 160
				n        = chunks * drillChunk // tuples per source
				cutEvery = 8                   // feeder-cut cadence, in chunks
			)
			rng := rand.New(rand.NewSource(1))
			// Somewhere in the middle half, and never on a cut: the work
			// since the last checkpoint must be lost and replayed.
			crashAfter := chunks/4 + rng.Intn(chunks/2)
			if crashAfter%cutEvery == 0 {
				crashAfter++
			}

			var ref checksum
			e, srcs := drillEngine(t, tc.aggregate, ref.sink())
			e.Start()
			feed(e, srcs, 0, n, [2]uint64{})
			drain(t, e, srcs)

			// Phase 1: checkpointed run, killed without drain.
			st, err := ckpt.NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var lost checksum // this engine's sink state dies with it
			e, srcs = drillEngine(t, tc.aggregate, lost.sink())
			// The interval matters only to Run: the feeder-cut case never
			// starts the periodic loop.
			coord, err := ckpt.NewCoordinator(e, st, ckpt.Options{Interval: 10 * time.Millisecond, Timeout: drillTimeout})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			if tc.concurrent {
				coord.Run()
			}
			fed := 0
			for c := 1; fed < n && (c <= crashAfter || coord.Completed() == 0); c++ {
				feed(e, srcs, fed, fed+drillChunk, [2]uint64{})
				fed += drillChunk
				if tc.concurrent {
					time.Sleep(time.Millisecond) // let coordinator ticks land mid-feed
				} else if c%cutEvery == 0 {
					if _, err := coord.Once(); err != nil {
						t.Fatalf("checkpoint after chunk %d: %v", c, err)
					}
				}
			}
			// The kill: stop the coordinator (waits out an in-flight cycle,
			// so the store holds only complete checkpoints), then tear the
			// engine down with no drain — everything past the last durable
			// barrier is lost.
			coord.Stop()
			e.Stop()
			if err := e.Wait(); err != nil {
				t.Fatalf("crashed engine reported failure: %v", err)
			}
			if fed >= n {
				t.Fatalf("fed all %d tuples before the crash point: nothing left to replay", n)
			}
			if coord.Completed() == 0 {
				t.Fatal("no checkpoint completed before the crash: restore path not exercised")
			}

			// Phase 2: restore a fresh graph from the latest durable
			// checkpoint and replay each source above its restored
			// watermark: tuple i (seq i+1) is in the checkpoint iff i+1 <= w.
			var got checksum
			e, srcs = drillEngine(t, tc.aggregate, got.sink())
			snap, err := st.Latest()
			if err != nil || snap == nil {
				t.Fatalf("latest checkpoint: %v, %v", snap, err)
			}
			if err := e.Restore(snap); err != nil {
				t.Fatal(err)
			}
			marks := [2]uint64{srcs[0].Seq(), srcs[1].Seq()}
			for _, w := range marks {
				if w == 0 || w > uint64(fed) {
					t.Fatalf("restored watermarks %v outside (0, %d]", marks, fed)
				}
			}
			e.Start()
			feed(e, srcs, 0, n, marks)
			drain(t, e, srcs)
			if got != ref {
				t.Errorf("recovered output diverges from reference: got %+v, want %+v — tuples lost or duplicated across the crash (crash after chunk %d, %d checkpoints, restored id %d, watermarks %v)",
					got, ref, fed/drillChunk, coord.Completed(), snap.ID, marks)
			}
		})
	}
}

// TestCheckpointUnderTrafficKeepsArcOrder is the reproducer for the barrier
// protocol's known defect: with no crash at all, a checkpoint cut while
// traffic flows can leave the union's output arc out of timestamp order.
func TestCheckpointUnderTrafficKeepsArcOrder(t *testing.T) {
	t.Skip("known defect in internal/ops/barrier.go's consume-and-stash (DESIGN.md §14 \"Known defect\"): " +
		"when the sources cut at different sequence numbers the union replays the aligned input's stash " +
		"behind higher-timestamped tuples of the lagging input; un-skip with the protocol fix")
	const (
		rounds = 30
		n      = 40_000 // tuples per source per round
	)
	var total, bad int
	for round := 0; round < rounds; round++ {
		inversions := 0
		prev := tuple.MinTime
		e, srcs := drillEngine(t, false, ops.NewSink("k", func(tp *tuple.Tuple, _ tuple.Time) {
			if tp.Ts < prev {
				inversions++
			} else {
				prev = tp.Ts
			}
		}))
		st, err := ckpt.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		coord, err := ckpt.NewCoordinator(e, st, ckpt.Options{Interval: 2 * time.Millisecond, Timeout: drillTimeout})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		coord.Run()
		feed(e, srcs, 0, n, [2]uint64{})
		// Stop before EOS: a barrier injected into a closing source would
		// never come back (DESIGN.md §14).
		coord.Stop()
		drain(t, e, srcs)
		if inversions > 0 {
			bad++
			total += inversions
		}
	}
	if bad > 0 {
		t.Errorf("union output arc left timestamp order in %d/%d rounds (%d inversions in total)", bad, rounds, total)
	}
}
