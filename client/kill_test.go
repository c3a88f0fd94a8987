package client_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/tuple"
)

// TestKillTheClient kills one of two live feeds of a union without any
// shutdown handshake (no EOS, the connection just closes) while the other
// keeps streaming. The union must keep emitting and the final drain must
// complete: the engine never deadlocks on a vanished feed. It runs twice:
// with on-demand ETS on, as streamd ships; and with it off, where only the
// source-liveness watchdog can bound the dead source, so it must have forced
// an ETS. (With on-demand ETS on, demand can bound the silent feed before the
// watchdog's tick sees the union idle, so whether the watchdog fires there
// depends on the box's load.)
func TestKillTheClient(t *testing.T) {
	t.Run("on-demand", func(t *testing.T) { killTheClient(t, true) })
	t.Run("watchdog-only", func(t *testing.T) { killTheClient(t, false) })
}

func killTheClient(t *testing.T, onDemandETS bool) {
	base := time.Now()
	now := func() tuple.Time { return tuple.Time(time.Since(base).Microseconds()) }
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind}).WithTS(tuple.External)
	g := graph.New("kill")
	srcs := map[string]*ops.Source{
		"s1": ops.NewSource("s1", sch, 0),
		"s2": ops.NewSource("s2", sch, 0),
	}
	a := g.AddNode(srcs["s1"])
	b := g.AddNode(srcs["s2"])
	u := g.AddNode(ops.NewUnion("u", nil, 2, ops.TSM), a, b)
	var sunk atomic.Uint64
	g.AddNode(ops.NewSink("k", func(*tuple.Tuple, tuple.Time) { sunk.Add(1) }), u)
	eng, err := runtime.New(g, runtime.Options{
		OnDemandETS:   onDemandETS,
		BatchSize:     16,
		SourceTimeout: 50 * time.Millisecond,
		Now:           now,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	srv, err := server.Listen("127.0.0.1:0", server.Options{
		Backend: server.NewEngineBackend(eng, func(name string) (*tuple.Schema, *ops.Source, error) {
			if src := srcs[name]; src != nil {
				return sch, src, nil
			}
			return nil, nil, fmt.Errorf("unknown stream %q", name)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var victimDialer killableDialer
	dial := func(stream string, d *killableDialer) (*client.Conn, *client.Stream) {
		opts := client.Options{Name: "kill-" + stream, BatchSize: 1, HeartbeatEvery: -1}
		if d != nil {
			opts.Dial = d.dial
		}
		c, err := client.Dial(srv.Addr().String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Bind(stream, tuple.External, client.StreamOptions{AutoPunctEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		return c, s
	}
	live, liveStream := dial("s1", nil)
	victim, victimStream := dial("s2", &victimDialer)
	defer live.Close()
	defer victim.Close()

	// Both feeds stream paced tuples; then s2's connection dies mid-stream.
	stopLive := make(chan struct{})
	var liveWg sync.WaitGroup
	liveWg.Add(1)
	go func() {
		defer liveWg.Done()
		for {
			select {
			case <-stopLive:
				return
			default:
			}
			liveStream.Send(tuple.NewData(now(), tuple.Int(1)))
			time.Sleep(200 * time.Microsecond)
		}
	}()
	for i := 0; i < 100; i++ {
		victimStream.Send(tuple.NewData(now(), tuple.Int(2)))
		time.Sleep(200 * time.Microsecond)
	}
	beforeKill := sunk.Load()
	victimDialer.kill() // abrupt: no EOS, no drain — the feed just vanishes

	// The union now depends on an ETS bounding the silent s2.
	watchdogOnly := !onDemandETS
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if (!watchdogOnly || eng.Snapshot().ForcedETS > 0) && sunk.Load() >= beforeKill+1000 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if watchdogOnly && eng.Snapshot().ForcedETS == 0 {
		t.Error("feed killed but the watchdog never forced an ETS")
	}
	if after := sunk.Load() - beforeKill; after < 1000 {
		t.Errorf("union stalled on the dead feed: %d results after the kill, want ≥ 1000", after)
	}

	// Graceful path out: the live feed finishes, the drain EOSes the
	// orphaned s2, and the graph must run dry.
	close(stopLive)
	liveWg.Wait()
	liveStream.CloseSend()
	live.Close()
	done := make(chan error, 1)
	go func() {
		srv.Drain(time.Second)
		done <- eng.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("engine failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain wedged on the vanished feed")
	}
}
