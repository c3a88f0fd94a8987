package client_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/ops"
	"repro/internal/server"
	"repro/internal/tuple"
)

// orderBackend records everything a stream's sink sees as one sequence:
// "d<ts>" per data tuple, "p<ets>" per punctuation, "eos" at the end.
type orderBackend struct {
	sch *tuple.Schema

	mu     sync.Mutex
	events []string
}

func (b *orderBackend) Open(name string) (*tuple.Schema, server.StreamSink, error) {
	if name != b.sch.Name {
		return nil, nil, fmt.Errorf("unknown stream %q", name)
	}
	return b.sch, b, nil
}

func (b *orderBackend) note(ev string) {
	b.mu.Lock()
	b.events = append(b.events, ev)
	b.mu.Unlock()
}

func (b *orderBackend) Ingest(t *tuple.Tuple) {
	if t.IsPunct() {
		b.note(fmt.Sprintf("p%d", t.Ts))
	} else {
		b.note(fmt.Sprintf("d%d", t.Ts))
	}
}

func (b *orderBackend) IngestBatch(ts []*tuple.Tuple) {
	for _, t := range ts {
		b.Ingest(t)
	}
}

func (b *orderBackend) Source() *ops.Source { return nil }
func (b *orderBackend) Close()              { b.note("eos") }

func (b *orderBackend) seen() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.events...)
}

// flakyConn is a transport whose writes the test can make fail, either
// before the bytes leave (lost) or after (delivered, but reported failed),
// and which tells on a write made once the test has declared it shut.
type flakyConn struct {
	net.Conn
	fail    atomic.Int32 // 0 healthy, failLost, failDelivered
	shut    atomic.Bool
	written atomic.Int64 // Write calls after shut
}

const (
	failLost = iota + 1
	failDelivered
)

var errFlaky = errors.New("flakyConn: write failed")

func (c *flakyConn) Write(p []byte) (int, error) {
	if c.shut.Load() {
		c.written.Add(1)
	}
	switch c.fail.Load() {
	case failLost:
		return 0, errFlaky
	case failDelivered:
		if n, err := c.Conn.Write(p); err != nil {
			return n, err
		}
		return 0, errFlaky
	}
	return c.Conn.Write(p)
}

// flakyDialer dials flakyConns at whatever address is current and can be
// told to refuse.
type flakyDialer struct {
	mu     sync.Mutex
	addr   string
	refuse bool
	conns  []*flakyConn
}

func (d *flakyDialer) dial(string) (net.Conn, error) {
	d.mu.Lock()
	addr, refuse := d.addr, d.refuse
	d.mu.Unlock()
	if refuse {
		return nil, errors.New("flakyDialer: refusing")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fc := &flakyConn{Conn: conn}
	d.mu.Lock()
	d.conns = append(d.conns, fc)
	d.mu.Unlock()
	return fc, nil
}

func (d *flakyDialer) set(addr string, refuse bool) {
	d.mu.Lock()
	d.addr, d.refuse = addr, refuse
	d.mu.Unlock()
}

func (d *flakyDialer) last() *flakyConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[len(d.conns)-1]
}

func data(ts int) *tuple.Tuple {
	return tuple.NewData(tuple.Time(ts), tuple.Int(int64(ts)), tuple.Float(1))
}

// TestSendDoesNotWaitForFrameOrHeartbeat is the latency contract: with no
// heartbeat to rescue them, a lone tuple (written through on the idle link)
// and one sent right behind it (buffered behind the busy link, so the
// flusher's to write) both reach the sink at once, not when the 256-tuple
// frame fills.
func TestSendDoesNotWaitForFrameOrHeartbeat(t *testing.T) {
	back := &gateBackend{sch: extSchema()}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.Options{HeartbeatEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	arrive := func(want int) {
		t.Helper()
		deadline := time.Now().Add(50 * time.Millisecond)
		for {
			if d, _, _ := back.counts(); d == want {
				return
			}
			if time.Now().After(deadline) {
				d, _, _ := back.counts()
				t.Fatalf("%d of %d tuples at the sink 50 ms after Send", d, want)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if err := s.Send(data(1)); err != nil {
		t.Fatal(err)
	}
	arrive(1)
	for i := 2; i <= 4; i++ {
		if err := s.Send(data(i)); err != nil {
			t.Fatal(err)
		}
	}
	arrive(4)
	if st := c.Stats(); st.TuplesSent != 4 || st.BatchesSent < 2 {
		t.Errorf("stats = %+v, want 4 tuples in at least 2 frames", st)
	}
}

// TestSendOrderRacingFlusher: frames that flush the batch themselves and
// the flusher racing them must still put everything on the wire in call
// order.
func TestSendOrderRacingFlusher(t *testing.T) {
	want := []string{"d1", "d2", "p2", "d3", "eos"}
	for round := 0; round < 50; round++ {
		back := &orderBackend{sch: extSchema()}
		srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(srv.Addr().String(), client.Options{HeartbeatEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Vary where the flusher's wake-up lands among the calls.
		pause := func() {
			if round%5 > 0 {
				time.Sleep(time.Duration(round%5) * 20 * time.Microsecond)
			}
		}
		steps := []func() error{
			func() error { return s.Send(data(1)) },
			func() error { return s.Send(data(2)) },
			func() error { return s.Punct(2) },
			func() error { return s.Send(data(3)) },
			s.CloseSend,
		}
		for i, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("round %d step %d: %v", round, i, err)
			}
			pause()
		}
		waitCond(t, "eos", func() bool { ev := back.seen(); return len(ev) > 0 && ev[len(ev)-1] == "eos" })
		if got := back.seen(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: sink saw %v, want %v", round, got, want)
		}
		c.Close()
		srv.Close()
	}
}

// TestSendBatchLargerThanWindow: two senders pushing batches far larger
// than the credit window through one stream both finish, chunk by chunk, and
// each one's tuples arrive in its own order.
func TestSendBatchLargerThanWindow(t *testing.T) {
	back := &gateBackend{sch: extSchema()}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back, Credits: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), client.Options{HeartbeatEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const per = 300
	var wg sync.WaitGroup
	for sender := 0; sender < 2; sender++ {
		batch := make([]*tuple.Tuple, per)
		for i := range batch {
			batch[i] = data(sender*1000 + i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.SendBatch(batch); err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SendBatch of more tuples than the credit window never returned")
	}
	waitCond(t, "all ingested", func() bool { d, _, _ := back.counts(); return d == 2*per })
	back.mu.Lock()
	defer back.mu.Unlock()
	next := [2]tuple.Time{0, 1000}
	for _, ts := range back.data {
		k := int(ts / 1000)
		if ts != next[k] {
			t.Fatalf("sender %d: got ts %d, want %d", k, ts, next[k])
		}
		next[k]++
	}
	if c.Stats().CreditStalls == 0 {
		t.Error("no credit stall recorded with a window of 8")
	}
}

// TestRetainedBatchResentWithoutSend: a write that fails leaves its batch
// with the client, and the flusher redials and resends it with no further
// call from the application. Sequencing makes that exactly-once whether the
// failed write's bytes were lost or had in fact been delivered.
func TestRetainedBatchResentWithoutSend(t *testing.T) {
	for _, mode := range []int32{failLost, failDelivered} {
		back := &gateBackend{sch: extSchema()}
		srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
		if err != nil {
			t.Fatal(err)
		}
		d := &flakyDialer{addr: srv.Addr().String()}
		c, err := client.Dial(d.addr, client.Options{
			Sequenced:      true,
			Reconnect:      true,
			HeartbeatEvery: -1,
			Dial:           d.dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			if err := s.Send(data(i)); err != nil {
				t.Fatal(err)
			}
		}
		waitCond(t, "first three", func() bool { n, _, _ := back.counts(); return n == 3 })

		d.last().fail.Store(mode)
		if err := s.SendBatch([]*tuple.Tuple{data(4), data(5), data(6), data(7), data(8)}); err != nil {
			t.Fatalf("mode %d: a transport failure after buffering is not an error: %v", mode, err)
		}
		// No Send, Flush or Punct from here on.
		waitCond(t, "resend after reconnect", func() bool { n, _, _ := back.counts(); return n >= 8 })
		time.Sleep(50 * time.Millisecond) // room for a duplicate to land
		back.mu.Lock()
		got := append([]tuple.Time(nil), back.data...)
		back.mu.Unlock()
		if want := []tuple.Time{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %d: sink saw %v, want %v", mode, got, want)
		}
		if got := c.Stats().Reconnects; got != 1 {
			t.Errorf("mode %d: reconnects = %d, want 1", mode, got)
		}
		c.Close()
		srv.Close()
	}
}

// TestCloseStopsFlusher: Close with a kick pending returns with the flusher
// gone and nothing written afterwards, and the tuple behind the kick is
// flushed by Close itself.
func TestCloseStopsFlusher(t *testing.T) {
	back := &gateBackend{sch: extSchema()}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := &flakyDialer{addr: srv.Addr().String()}
	before := runtime.NumGoroutine()
	const rounds = 100
	for round := 0; round < rounds; round++ {
		c, err := client.Dial(d.addr, client.Options{HeartbeatEvery: -1, Dial: d.dial})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The first is written through; the second finds the link busy, is
		// buffered and kicks the flusher.
		if err := s.Send(data(2 * round)); err != nil {
			t.Fatal(err)
		}
		if err := s.Send(data(2*round + 1)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		d.last().shut.Store(true)
	}
	waitCond(t, "every tuple flushed by Send, the flusher or Close", func() bool { n, _, _ := back.counts(); return n == 2*rounds })
	// Client and server goroutines are all gone once the sessions have seen
	// their connections close.
	waitCond(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	for i, fc := range d.conns {
		if n := fc.written.Load(); n != 0 {
			t.Errorf("connection %d: %d writes after Close returned", i, n)
		}
	}
}

// TestCloseInterruptsFlusherBackoff: a flusher asleep in the reconnect
// backoff, holding a batch it cannot deliver, does not keep Close waiting
// for the sleep to end.
func TestCloseInterruptsFlusherBackoff(t *testing.T) {
	back := &gateBackend{sch: extSchema()}
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := &flakyDialer{addr: srv.Addr().String()}
	c, err := client.Dial(d.addr, client.Options{Reconnect: true, HeartbeatEvery: -1, Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.set(d.addr, true)
	d.last().fail.Store(failLost)
	if err := s.Send(data(1)); err != nil { // retained; the flusher starts redialing
		t.Fatal(err)
	}
	// Backoff sleeps of 50, 100, 200 and 400 ms end at 750 ms; by 850 ms the
	// flusher is early in the 800 ms one.
	time.Sleep(850 * time.Millisecond)
	start := time.Now()
	c.Close()
	if took := time.Since(start); took > 300*time.Millisecond {
		t.Fatalf("Close took %v with the flusher in backoff", took)
	}
}
