package client_test

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/ops"
	"repro/internal/server"
	"repro/internal/tuple"
)

// gateBackend records ingested tuples; an optional gate channel makes
// Ingest block (engine backpressure stand-in).
type gateBackend struct {
	sch  *tuple.Schema
	gate chan struct{} // nil: never blocks

	mu     sync.Mutex
	data   []tuple.Time
	vals   [][]tuple.Value // each data tuple's values, beside data
	punct  []tuple.Time
	closed bool
}

func (b *gateBackend) Open(name string) (*tuple.Schema, server.StreamSink, error) {
	if name != b.sch.Name {
		return nil, nil, fmt.Errorf("unknown stream %q", name)
	}
	return b.sch, b, nil
}

func (b *gateBackend) Ingest(t *tuple.Tuple) {
	if b.gate != nil {
		<-b.gate
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.IsPunct() {
		b.punct = append(b.punct, t.Ts)
	} else {
		b.data = append(b.data, t.Ts)
		b.vals = append(b.vals, slices.Clone(t.Vals))
	}
}

func (b *gateBackend) IngestBatch(ts []*tuple.Tuple) {
	for _, t := range ts {
		b.Ingest(t)
	}
}

func (b *gateBackend) Source() *ops.Source { return nil }

func (b *gateBackend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}

func (b *gateBackend) counts() (data, punct int, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data), len(b.punct), b.closed
}

func extSchema() *tuple.Schema {
	return tuple.NewSchema("sensors",
		tuple.Field{Name: "id", Kind: tuple.IntKind},
		tuple.Field{Name: "v", Kind: tuple.FloatKind},
	).WithTS(tuple.External)
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClientSendPunctEOS(t *testing.T) {
	back := &gateBackend{sch: extSchema()}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "t", BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Session() == 0 {
		t.Error("no session id")
	}
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*tuple.Tuple, 10)
	for i := range batch {
		batch[i] = tuple.NewData(tuple.Time(i*100), tuple.Int(int64(i)), tuple.Float(0.5))
	}
	if err := s.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Punct(900); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "ingest", func() bool {
		d, p, closed := back.counts()
		return d == 10 && p == 1 && closed
	})
	st := c.Stats()
	if st.TuplesSent != 10 || st.PunctSent != 1 {
		t.Errorf("stats = %+v", st)
	}
	// BatchSize is 4: two frames leave full, and the last two tuples leave
	// together, by the idle link, the flusher or the Punct behind them.
	if st.BatchesSent != 3 {
		t.Errorf("%d frames for 10 tuples under a cap of 4, want 3", st.BatchesSent)
	}
}

func TestClientAutoPunct(t *testing.T) {
	back := &gateBackend{sch: extSchema()}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{AutoPunctEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Send(tuple.NewData(tuple.Time(i*10), tuple.Int(int64(i)), tuple.Float(1)))
	}
	c.Flush()
	waitCond(t, "auto punct", func() bool {
		d, p, _ := back.counts()
		return d == 20 && p == 4
	})
	// Each auto punct promises the max timestamp sent before it.
	back.mu.Lock()
	defer back.mu.Unlock()
	for i, p := range back.punct {
		want := tuple.Time((i+1)*5*10 - 10)
		if p != want {
			t.Errorf("punct %d = %d, want %d", i, p, want)
		}
	}
}

func TestClientBindError(t *testing.T) {
	back := &gateBackend{sch: extSchema()}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Bind("nosuch", tuple.External, client.StreamOptions{}); err == nil {
		t.Fatal("bind to unknown stream succeeded")
	}
	if _, err := c.Bind("sensors", tuple.Internal, client.StreamOptions{}); err == nil {
		t.Fatal("bind with wrong TS kind succeeded")
	}
}

// killableDialer hands out connections the test can sever at will.
type killableDialer struct {
	mu   sync.Mutex
	last net.Conn
}

func (d *killableDialer) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.last = conn
	d.mu.Unlock()
	return conn, nil
}

func (d *killableDialer) kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last != nil {
		d.last.Close()
	}
}

func TestClientReconnectResumesAndRebinds(t *testing.T) {
	back := &gateBackend{sch: extSchema()}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	d := &killableDialer{}
	c, err := client.Dial(srv.Addr().String(), client.Options{
		Reconnect:      true,
		BatchSize:      1,
		HeartbeatEvery: -1, // the test drives reconnection via Send
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
	for i := 0; i < 5; i++ {
		if err := s.Send(tuple.NewData(tuple.Time(i), tuple.Int(int64(i)), tuple.Float(1))); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "first half", func() bool { d, _, _ := back.counts(); return d == 5 })
	firstSession := c.Session()

	d.kill()
	// The next sends ride the reconnect: the first may be buffered into the
	// dead transport's batch (kept and resent), the second forces a redial.
	for i := 5; i < 10; i++ {
		if err := s.Send(tuple.NewData(tuple.Time(i), tuple.Int(int64(i)), tuple.Float(1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "second half", func() bool { d, _, _ := back.counts(); return d == 10 })
	if got := c.Stats().Reconnects; got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if c.Session() == firstSession {
		t.Error("session id unchanged across reconnect")
	}
	// The re-bound stream still works end to end.
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "eos", func() bool { _, _, closed := back.counts(); return closed })
}

func TestClientCreditBackpressure(t *testing.T) {
	gate := make(chan struct{})
	back := &gateBackend{sch: extSchema(), gate: gate}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back, Credits: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := client.Dial(srv.Addr().String(), client.Options{BatchSize: 1, HeartbeatEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 9; i++ {
			s.Send(tuple.NewData(tuple.Time(i), tuple.Int(int64(i)), tuple.Float(1)))
		}
	}()
	// The window is 8 and the server is stuck in Ingest: the 9th Send must
	// stall rather than complete.
	select {
	case <-done:
		t.Fatal("sends completed past an exhausted credit window")
	case <-time.After(200 * time.Millisecond):
	}
	close(gate) // engine unblocks -> server consumes -> DEMAND tops up
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sends never completed after credits returned")
	}
	if c.Stats().CreditStalls == 0 {
		t.Error("no credit stall recorded")
	}
	waitCond(t, "all ingested", func() bool { d, _, _ := back.counts(); return d == 9 })
}
