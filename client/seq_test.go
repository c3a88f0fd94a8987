package client_test

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
	"repro/internal/tuple"
)

// retargetDialer dials whatever address is currently set — the test's way of
// "restarting" a server on a new port while the client reconnects to the
// same logical node.
type retargetDialer struct {
	mu   sync.Mutex
	addr string
	last net.Conn
}

func (d *retargetDialer) dial(string) (net.Conn, error) {
	d.mu.Lock()
	addr := d.addr
	d.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.last = conn
	d.mu.Unlock()
	return conn, nil
}

func (d *retargetDialer) retarget(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addr = addr
}

// TestClientSequencedRecovery replays the crash-recovery handshake end to
// end: a sequenced client streams into a server, the server "crashes" and is
// replaced by one restored to an earlier checkpoint cut (Options.InitialSeq),
// and the reconnecting client must (a) learn the restored watermark from
// BIND_ACK, (b) keep its sequence counter monotone so new tuples land above
// the cut, and (c) let the application replay the gap — with the server
// suppressing any overlap into the restored prefix.
func TestClientSequencedRecovery(t *testing.T) {
	back1 := &gateBackend{sch: extSchema()}
	srv1, err := server.Listen("127.0.0.1:0", server.Options{Backend: back1})
	if err != nil {
		t.Fatal(err)
	}

	d := &retargetDialer{addr: srv1.Addr().String()}
	c, err := client.Dial(d.addr, client.Options{
		Sequenced:      true,
		Reconnect:      true,
		BatchSize:      1,
		HeartbeatEvery: -1,
		Dial:           d.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.AckedSeq(); got != 0 {
		t.Fatalf("fresh stream AckedSeq = %d, want 0", got)
	}
	for i := 1; i <= 10; i++ {
		if err := s.Send(tuple.NewData(tuple.Time(i), tuple.Int(int64(i)), tuple.Float(1))); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "first run", func() bool { d, _, _ := back1.counts(); return d == 10 })

	// Crash: the server dies having durably checkpointed only seqs 1..6.
	srv1.Close()
	back2 := &gateBackend{sch: extSchema()}
	srv2, err := server.Listen("127.0.0.1:0", server.Options{
		Backend:    back2,
		InitialSeq: map[string]uint64{"sensors": 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	d.retarget(srv2.Addr().String())

	// Drive the reconnect (Flush runs the redial once the dead transport is
	// noticed); the re-bind brings the restored watermark back.
	waitCond(t, "reconnect watermark", func() bool {
		_ = c.Flush() // errors expected while the transport is down
		return s.AckedSeq() == 6
	})

	// Application-level gap replay: AckedSeq is the resume point — the
	// application re-sends its tuples above the cut (7..10, which the
	// client itself released long ago) plus new traffic (11). The re-sends
	// get fresh sequence numbers above the watermark, so nothing is
	// suppressed and nothing below the cut is repeated.
	for i := 7; i <= 11; i++ {
		if err := s.Send(tuple.NewData(tuple.Time(i), tuple.Int(int64(i)), tuple.Float(1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// The restored run must see exactly the gap plus the new tuple: 7..11.
	waitCond(t, "gap replay", func() bool { d, _, _ := back2.counts(); return d == 5 })
	back2.mu.Lock()
	got := append([]tuple.Time(nil), back2.data...)
	back2.mu.Unlock()
	seen := make(map[tuple.Time]bool, len(got))
	for _, ts := range got {
		seen[ts] = true
	}
	for _, want := range []tuple.Time{7, 8, 9, 10, 11} {
		if !seen[want] {
			t.Fatalf("restored run missing ts %d (got %v)", want, got)
		}
	}
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "eos", func() bool { _, _, closed := back2.counts(); return closed })
}

// TestClientSequencedResendTrim covers the retained-batch trim: a batch that
// failed to flush is trimmed against the re-bind watermark instead of being
// resent, when the server already applied it.
func TestClientSequencedResendTrim(t *testing.T) {
	back1 := &gateBackend{sch: extSchema()}
	srv1, err := server.Listen("127.0.0.1:0", server.Options{Backend: back1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	d := &flakyDialer{addr: srv1.Addr().String()}
	c, err := client.Dial(d.addr, client.Options{
		Sequenced:      true,
		Reconnect:      true,
		HeartbeatEvery: -1,
		Dial:           d.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Three tuples (seqs 1..3) whose write fails stay with the client, which
	// redials onto a server restored past all of them: the re-bind watermark
	// must trim the whole retained batch, and the flusher's resend after the
	// reconnect sends nothing.
	back2 := &gateBackend{sch: extSchema()}
	srv2, err := server.Listen("127.0.0.1:0", server.Options{
		Backend:    back2,
		InitialSeq: map[string]uint64{"sensors": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	d.set(srv2.Addr().String(), false)
	d.last().fail.Store(failLost)
	if err := s.SendBatch([]*tuple.Tuple{data(1), data(2), data(3)}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "trim watermark", func() bool { return s.AckedSeq() == 3 })
	// A fresh tuple must land with seq 4, alone.
	if err := s.Send(data(40)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "post-trim send", func() bool { d, _, _ := back2.counts(); return d == 1 })
	time.Sleep(50 * time.Millisecond) // give any wrongly-resent tuples time to land
	if got, _, _ := back2.counts(); got != 1 {
		t.Fatalf("restored server ingested %d tuples, want 1 (trimmed batch resent?)", got)
	}
	if got, _, _ := back1.counts(); got != 0 {
		t.Fatalf("the first server ingested %d tuples through a transport whose writes fail", got)
	}
}

// TestClientSequencedResendTrimPartial covers a retained frame the re-bind
// watermark only partly covers: of seqs 1..5, a server restored at 3 has
// applied 1..3, so the client cuts those three tuples' bytes off the front
// of its encoded frame and resends 4 and 5 alone, values intact, as a frame
// whose first seq is 4 — nothing left for the server to suppress.
func TestClientSequencedResendTrimPartial(t *testing.T) {
	back1 := &gateBackend{sch: extSchema()}
	srv1, err := server.Listen("127.0.0.1:0", server.Options{Backend: back1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	d := &flakyDialer{addr: srv1.Addr().String()}
	c, err := client.Dial(d.addr, client.Options{
		Sequenced:      true,
		Reconnect:      true,
		HeartbeatEvery: -1,
		Dial:           d.dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back2 := &gateBackend{sch: extSchema()}
	srv2, err := server.Listen("127.0.0.1:0", server.Options{
		Backend:    back2,
		InitialSeq: map[string]uint64{"sensors": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	d.set(srv2.Addr().String(), false)
	d.last().fail.Store(failLost)
	if err := s.SendBatch([]*tuple.Tuple{data(1), data(2), data(3), data(4), data(5)}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "resend of the untrimmed rest", func() bool { d, _, _ := back2.counts(); return d == 2 })
	// A fresh tuple takes seq 6, above the watermark the resend left (5).
	if err := s.Send(data(6)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "post-resend send", func() bool { d, _, _ := back2.counts(); return d == 3 })
	time.Sleep(50 * time.Millisecond) // give any wrongly-resent tuples time to land
	back2.mu.Lock()
	gotTs, gotVals := slices.Clone(back2.data), slices.Clone(back2.vals)
	back2.mu.Unlock()
	if want := []tuple.Time{4, 5, 6}; !slices.Equal(gotTs, want) {
		t.Fatalf("restored server ingested ts %v, want %v", gotTs, want)
	}
	for i, v := range gotVals {
		if want := data(int(gotTs[i])).Vals; !slices.Equal(v, want) {
			t.Fatalf("tuple %d arrived with values %v, want %v", gotTs[i], v, want)
		}
	}
	if n := srv2.Registry().Counter("sm_net_tuples_deduped_total").Load(); n != 0 {
		t.Fatalf("the restored server suppressed %d resent tuples: the client did not trim them", n)
	}
}
