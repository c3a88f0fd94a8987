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
// windows), and the given sink — on an engine that is not yet started, with
// on-demand ETS on as a deployment runs it.
func drillEngine(t *testing.T, aggregate bool, sink *ops.Sink) (*runtime.Engine, [2]*ops.Source) {
	t.Helper()
	return drillEngineTS(t, tuple.External, aggregate, sink)
}

// drillEngineTS is drillEngine with sources of timestamp kind ts. Internal
// sources stamp the engine clock over the feed's timestamps, and the union
// reads an idle one's bound instead of asking it for an ETS.
func drillEngineTS(t *testing.T, ts tuple.TSKind, aggregate bool, sink *ops.Sink) (*runtime.Engine, [2]*ops.Source) {
	t.Helper()
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind}).
		WithTS(ts)
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

// waitArmed waits until every source holds an armed cut.
func waitArmed(t *testing.T, srcs [2]*ops.Source) {
	t.Helper()
	deadline := time.Now().Add(drillTimeout)
	for _, s := range srcs {
		for {
			if _, _, ok := s.ArmedCut(); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("source %s never armed a cut", s.Name())
			}
			time.Sleep(50 * time.Microsecond)
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
// Each case is deterministic in what it asserts. A checkpoint cuts both
// sources at one timestamp T, just above everything they have been given, and
// the union aligns the two barriers by τ-order, so its output arc stays in
// timestamp order and the aggregate downstream sees no late tuple however
// the coordinator's ticks fall against the feed. The feeder-cut case arms a
// cut between chunks — the next chunk's first tuple reaches it, so both
// sources cut at the same sequence number — and the concurrent cases run a
// free 10ms coordinator mid-feed, with and without the aggregate.
func TestKillRestoreVerify(t *testing.T) {
	for _, tc := range []struct {
		name       string
		aggregate  bool
		concurrent bool
	}{
		{"union-aggregate/feeder-cut", true, false},
		{"union-aggregate/concurrent-coordinator", true, true},
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
			// A feeder cut waits for the chunk after it: with δ this large
			// only data carries a source to the cut's timestamp.
			var cut chan error
			for c := 1; fed < n && (c <= crashAfter || coord.Completed() == 0); c++ {
				feed(e, srcs, fed, fed+drillChunk, [2]uint64{})
				fed += drillChunk
				if cut != nil {
					if err := <-cut; err != nil {
						t.Fatalf("checkpoint before chunk %d: %v", c, err)
					}
					cut = nil
				}
				if tc.concurrent {
					time.Sleep(time.Millisecond) // let coordinator ticks land mid-feed
				} else if c%cutEvery == 0 {
					cut = make(chan error, 1)
					go func() {
						_, err := coord.Once()
						cut <- err
					}()
					waitArmed(t, srcs)
				}
			}
			// The kill: tear the engine down with no drain — everything
			// past the last durable barrier is lost — which also fails a
			// checkpoint still waiting for its cut; then stop the
			// coordinator, which waits out an in-flight cycle, so the store
			// holds only complete checkpoints.
			e.Stop()
			coord.Stop()
			if cut != nil {
				<-cut
			}
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

// TestCheckpointUnderTrafficKeepsArcOrder: with no crash at all, checkpoints
// cut while traffic flows must leave the union's output arc in timestamp
// order — which a cut by queue position cannot promise when the sources cut
// at different sequence numbers (DESIGN.md §14).
func TestCheckpointUnderTrafficKeepsArcOrder(t *testing.T) {
	trafficCuts(t, tuple.External)
}

// TestCheckpointUnderTrafficKeepsArcOrderInternal is its internal-timestamp
// twin: the union reads an idle source's bound in place of an ETS, and a
// read under an armed cut must stay below the cut's T. Every cut completes
// and the arc keeps its order.
func TestCheckpointUnderTrafficKeepsArcOrderInternal(t *testing.T) {
	trafficCuts(t, tuple.Internal)
}

func trafficCuts(t *testing.T, ts tuple.TSKind) {
	const (
		rounds = 30
		n      = 40_000 // tuples per source per round
	)
	var total, bad int
	var cuts, failed, reads uint64
	for round := 0; round < rounds; round++ {
		inversions := 0
		prev := tuple.MinTime
		e, srcs := drillEngineTS(t, ts, false, ops.NewSink("k", func(tp *tuple.Tuple, _ tuple.Time) {
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
		if ts == tuple.Internal {
			// An idle internal source reaches any cut with its clock, so
			// the coordinator stops first and every cut it began
			// completes; none starts against a drained engine.
			coord.Stop()
			drain(t, e, srcs)
		} else {
			// With δ this large only data or EOS reaches a cut, so close
			// before stopping the coordinator: its in-flight cycle
			// completes instead of waiting for data that will not come.
			// Its ticks after the drain fail.
			drain(t, e, srcs)
			coord.Stop()
		}
		if inversions > 0 {
			bad++
			total += inversions
		}
		cuts += coord.Completed()
		failed += coord.Failed()
		reads += e.BoundReads()
	}
	t.Logf("%d cuts completed, %d failed, %d bounds read", cuts, failed, reads)
	if bad > 0 {
		t.Errorf("union output arc left timestamp order in %d/%d rounds (%d inversions in total)", bad, rounds, total)
	}
	if cuts == 0 {
		t.Error("no cut completed")
	}
	if ts == tuple.Internal && failed > 0 {
		t.Errorf("%d of %d cuts failed", failed, failed+cuts)
	}
	if ts == tuple.Internal && reads == 0 {
		t.Error("no bound read: the drill never took the path it is for")
	}
}
