package client_test

import (
	"bufio"
	"io"
	"math"
	"net"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// discardPeer listens on loopback for one connection, answers its HELLO and
// its one BIND with a credit window too large to run out, and discards
// everything after: a server that costs the process nothing per tuple, so
// what a Send loop allocates is the client's own.
func discardPeer(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		rd := wire.NewReaderBuffered(br)
		w := wire.NewWriter(conn)
		if rd.ReadMagic() != nil {
			return
		}
		if _, err := rd.Next(); err != nil { // HELLO
			return
		}
		w.WriteFrame(wire.HelloAck{Version: wire.Version, Session: 1, Credits: math.MaxUint32})
		w.Flush()
		f, err := rd.Next()
		if err != nil {
			return
		}
		if b, ok := f.(wire.Bind); ok {
			w.WriteFrame(wire.BindAck{ID: b.ID})
			w.Flush()
		}
		io.Copy(io.Discard, br)
	}()
	tb.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// pooledSender dials a discardPeer and returns a function that sends the
// next tuple of a stream drawn from the tuple pool, as a producer recycling
// its tuples through Send does.
func pooledSender(tb testing.TB) func() {
	tb.Helper()
	c, err := client.Dial(discardPeer(tb), client.Options{HeartbeatEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	s, err := c.Bind("sensors", tuple.External, client.StreamOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	return func() {
		i++
		tp := tuple.GetData(tuple.Time(i), 2)
		tp.Vals[0], tp.Vals[1] = tuple.Int(int64(i)), tuple.Float(1)
		if err := s.Send(tp); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSendSteadyStateAllocatesNothing: once the pending frame has grown to
// its size, a producer that gets its tuples from the pool and Sends them
// allocates nothing. Send encodes the tuple and puts it back at once, so
// the next tuple.Get finds it again.
func TestSendSteadyStateAllocatesNothing(t *testing.T) {
	// The race detector makes sync.Pool drop a random share of Puts, so a
	// Get there allocates now and then; the count means nothing.
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			t.Skip("this build's sync.Pool drops Puts")
		}
	}
	send := pooledSender(t)
	for i := 0; i < 4*client.DefaultBatchSize; i++ { // grow the frame buffers
		send()
	}
	if avg := testing.AllocsPerRun(2000, send); avg != 0 {
		t.Fatalf("a pooled Get → Send allocates %.2f objects per tuple in steady state", avg)
	}
}

// BenchmarkStreamSend measures one pooled tuple through Send: encoding into
// the stream's pending frame, the pool round trip, and the share of frame
// writes to a peer that discards them.
func BenchmarkStreamSend(b *testing.B) {
	send := pooledSender(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
