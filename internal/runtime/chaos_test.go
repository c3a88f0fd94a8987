package runtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tuple"
)

const (
	chaosSpec       = "seed=1,panic=u+r+k:0.002,drop=0.01,stall=s2:600ms:400ms"
	chaosFeed       = 2 * time.Second
	chaosSendEvery  = 150 * time.Microsecond // per-source inter-arrival time
	chaosJitterStep = 300                    // µs of backward jitter per step on s1
	chaosJitterMod  = 7                      // jitter pattern period (max 1.8ms)
	chaosSlack      = 2 * tuple.Millisecond  // reorder slack (covers the jitter)
	chaosDelta      = 5 * tuple.Millisecond  // external skew bound δ
	chaosStragglers = 16                     // late tuples sent after the stall
)

// TestChaosSoak drives the union workload (two external sources, a reorder
// guard, a TSM union, one sink) under deterministic fault injection — node
// panics, source drops, and a mid-run stall of one source — and then checks
// the fault-tolerance invariants the runtime promises:
//
//   - the engine finishes cleanly (every injected panic recovered within the
//     restart budget, no deadlock);
//   - tuple accounting closes exactly: delivered = sent − injected drops −
//     reorder late-drops (restarts neither lose nor duplicate tuples);
//   - the watchdog force-injected ETS while the stalled source was silent,
//     so idle-waiting operators kept running;
//   - the sink's output is watermark-ordered: every inversion is a counted
//     late tuple (the post-stall stragglers the feed sends on purpose).
func TestChaosSoak(t *testing.T) {
	cfg, err := fault.ParseSpec(chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(cfg)

	sch := intSchema("s", tuple.External)
	g := graph.New("chaos")
	s1 := ops.NewSource("s1", sch, chaosDelta)
	s2 := ops.NewSource("s2", sch, chaosDelta)
	a := g.AddNode(s1)
	b := g.AddNode(s2)
	reord := ops.NewReorder("r", sch, chaosSlack)
	r := g.AddNode(reord, a)
	u := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), r, b)

	// The sink checks watermark order: an inversion is a delivered tuple
	// whose timestamp precedes its predecessor's. Under fault injection
	// inversions are allowed only for counted late tuples (the stragglers).
	var delivered, inversions uint64
	prev := tuple.MinTime
	g.AddNode(ops.NewSink("k", func(tp *tuple.Tuple, _ tuple.Time) {
		delivered++
		if tp.Ts < prev {
			inversions++
		} else {
			prev = tp.Ts
		}
	}), u)

	e, err := New(g, Options{
		// On-demand ETS stays off so the liveness watchdog — not the
		// demand path — is what unblocks idle-waiters during the stall.
		OnDemandETS:   false,
		BatchSize:     32,
		MaxRestarts:   1 << 20,
		SourceTimeout: 50 * time.Millisecond,
		Fault:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.backoff = 100 * time.Microsecond
	e.Start()
	inj.Arm() // stall clock starts with the workload
	start := time.Now()
	nowTs := func() tuple.Time { return tuple.FromDuration(time.Since(start)) }

	var sent, stragglers [2]uint64
	var wg sync.WaitGroup
	produce := func(idx int, src *ops.Source, jitter bool) {
		defer wg.Done()
		i := 0
		stalledAt := tuple.Time(-1)
		for time.Since(start) < chaosFeed {
			if inj.SourceStalled(src.Name()) {
				if stalledAt < 0 {
					stalledAt = nowTs()
				}
				time.Sleep(chaosSendEvery)
				continue
			}
			if stalledAt >= 0 {
				// The stall just ended: replay tuples that were "in
				// flight" when the feed went silent. Their timestamps
				// sit below the watchdog's forced ETS, so they arrive
				// late on purpose and exercise the relaxed-more path.
				for j := 0; j < chaosStragglers; j++ {
					e.Ingest(src, tuple.NewData(stalledAt+tuple.Time(j), tuple.Int(-1)))
				}
				sent[idx] += chaosStragglers
				stragglers[idx] += chaosStragglers
				stalledAt = -1
			}
			ts := nowTs()
			if jitter {
				// Deterministic backward jitter bounded by the reorder
				// slack: disorder for r to repair, never data loss.
				ts -= tuple.Time((i % chaosJitterMod) * chaosJitterStep)
				if ts < 0 {
					ts = 0
				}
			}
			e.Ingest(src, tuple.NewData(ts, tuple.Int(int64(i))))
			sent[idx]++
			i++
			time.Sleep(chaosSendEvery)
		}
	}
	wg.Add(2)
	go produce(0, s1, true)
	go produce(1, s2, false)
	wg.Wait()
	e.CloseStream(s1)
	e.CloseStream(s2)
	if err := e.Wait(); err != nil {
		t.Errorf("engine failed: %v", err)
	}

	snap := e.Snapshot()
	stats := inj.Stats()
	var restarts, panics uint64
	for _, n := range snap.Nodes {
		restarts += n.Restarts
		panics += n.Panics
	}
	total := sent[0] + sent[1]
	if want := total - stats.Drops - reord.Dropped(); delivered != want {
		t.Errorf("tuple accounting broken: delivered %d, want %d (sent %d − dropped %d − reorder-late %d)",
			delivered, want, total, stats.Drops, reord.Dropped())
	}
	if restarts != stats.Panics || panics != stats.Panics {
		t.Errorf("restart accounting broken: injected %d panics, recovered %d, restarted %d",
			stats.Panics, panics, restarts)
	}
	if stats.Panics == 0 {
		t.Errorf("no panics injected (probes %d): soak did not exercise the supervisor", stats.Probes)
	}
	if snap.ForcedETS == 0 {
		t.Errorf("source stalled %v but the watchdog never forced an ETS", cfg.StallFor)
	} else if stragglers[0]+stragglers[1] > 0 && snap.LateTuples == 0 {
		t.Error("stragglers sent below a forced ETS were not counted late")
	}
	lateAtSink := uint64(0)
	if k := snap.Node("k"); k != nil {
		lateAtSink = k.LateTuples
	}
	if inversions > lateAtSink {
		t.Errorf("output disordered beyond the late-tuple budget: %d inversions, %d counted late at sink",
			inversions, lateAtSink)
	}
	if snap.TuplesShed != 0 {
		t.Errorf("shedder dropped %d tuples with shedding disabled", snap.TuplesShed)
	}
	t.Logf("sent %d (stragglers %d) delivered %d injected-drops %d reorder-late %d panics %d forced-ets %d late %d inversions %d",
		total, stragglers[0]+stragglers[1], delivered, stats.Drops, reord.Dropped(),
		stats.Panics, snap.ForcedETS, snap.LateTuples, inversions)
}
