package server_test

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// recBackend records everything ingested for one declared stream.
type recBackend struct {
	sch *tuple.Schema
	src *ops.Source

	mu     sync.Mutex
	data   []*tuple.Tuple
	punct  []tuple.Time
	closed bool
}

func newRecBackend(sch *tuple.Schema, src *ops.Source) *recBackend {
	return &recBackend{sch: sch, src: src}
}

func (b *recBackend) Open(name string) (*tuple.Schema, server.StreamSink, error) {
	if name != b.sch.Name {
		return nil, nil, fmt.Errorf("unknown stream %q", name)
	}
	return b.sch, b, nil
}

func (b *recBackend) Ingest(t *tuple.Tuple) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.IsPunct() {
		b.punct = append(b.punct, t.Ts)
		return
	}
	b.data = append(b.data, t)
}

func (b *recBackend) IngestBatch(ts []*tuple.Tuple) {
	for _, t := range ts {
		b.Ingest(t)
	}
}

func (b *recBackend) Source() *ops.Source { return b.src }

func (b *recBackend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}

func (b *recBackend) counts() (data, punct int, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data), len(b.punct), b.closed
}

func sensorSchema() *tuple.Schema {
	return tuple.NewSchema("sensors",
		tuple.Field{Name: "id", Kind: tuple.IntKind},
		tuple.Field{Name: "v", Kind: tuple.FloatKind},
	).WithTS(tuple.External)
}

// testConn wraps a raw protocol conversation.
type testConn struct {
	t    *testing.T
	conn net.Conn
	w    *wire.Writer
	r    *wire.Reader
}

func dialWire(t *testing.T, addr string) *testConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	tc := &testConn{t: t, conn: conn, w: wire.NewWriter(conn), r: wire.NewReader(conn)}
	if err := tc.w.WriteMagic(); err != nil {
		t.Fatalf("magic: %v", err)
	}
	return tc
}

func (tc *testConn) send(f wire.Frame) {
	tc.t.Helper()
	if err := tc.w.WriteFrame(f); err != nil {
		tc.t.Fatalf("write %v: %v", f.Type(), err)
	}
	if err := tc.w.Flush(); err != nil {
		tc.t.Fatalf("flush: %v", err)
	}
}

func (tc *testConn) recv() wire.Frame {
	tc.t.Helper()
	tc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := tc.r.Next()
	if err != nil {
		tc.t.Fatalf("read frame: %v", err)
	}
	return f
}

// hello performs the opening handshake and returns the ack.
func (tc *testConn) hello(clock int64) wire.HelloAck {
	tc.t.Helper()
	tc.send(wire.Hello{Version: wire.Version, Name: "test", Clock: clock})
	ack, ok := tc.recv().(wire.HelloAck)
	if !ok {
		tc.t.Fatalf("expected HELLO_ACK")
	}
	return ack
}

func (tc *testConn) bind(id uint32, stream string, ts tuple.TSKind, delta tuple.Time) wire.BindAck {
	tc.t.Helper()
	tc.send(wire.Bind{ID: id, Stream: stream, TS: ts, Delta: delta})
	ack, ok := tc.recv().(wire.BindAck)
	if !ok {
		tc.t.Fatalf("expected BIND_ACK")
	}
	return ack
}

// waitCounts polls the backend until it has recorded exactly the given
// data and punctuation counts and closed state.
func waitCounts(t *testing.T, back *recBackend, data, punct int, closed bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d, p, c := back.counts()
		if d == data && p == punct && c == closed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: data=%d punct=%d closed=%v, want %d/%d/%v", d, p, c, data, punct, closed)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSessionIngest(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc := dialWire(t, srv.Addr().String())
	defer tc.conn.Close()
	ack := tc.hello(1000)
	if ack.Session == 0 || ack.Credits == 0 {
		t.Fatalf("bad hello ack: %+v", ack)
	}
	if back := tc.bind(1, "sensors", tuple.External, 500); back.Err != "" {
		t.Fatalf("bind: %s", back.Err)
	}

	tc.send(wire.Tuple{ID: 1, T: tuple.NewData(10, tuple.Int(1), tuple.Float(0.5))})
	batch := wire.Tuples{ID: 1}
	for i := 0; i < 10; i++ {
		batch.Batch = append(batch.Batch, tuple.NewData(tuple.Time(20+i), tuple.Int(int64(i)), tuple.Float(1.5)))
	}
	tc.send(batch)
	tc.send(wire.Punct{ID: 1, TS: tuple.External, ETS: 29})
	tc.send(wire.EOS{ID: 1})
	tc.conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		data, punct, closed := back.counts()
		if data == 11 && punct == 1 && closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: data=%d punct=%d closed=%v", data, punct, closed)
		}
		time.Sleep(time.Millisecond)
	}

	reg := srv.Registry()
	snap := map[string]float64{}
	for _, m := range reg.Snapshot() {
		snap[m.Name] = m.Value
	}
	if snap["sm_net_tuples_in_total"] != 11 {
		t.Errorf("tuples_in = %v, want 11", snap["sm_net_tuples_in_total"])
	}
	if snap["sm_net_punct_in_total"] != 1 {
		t.Errorf("punct_in = %v, want 1", snap["sm_net_punct_in_total"])
	}
	if snap["sm_net_stream_tuples_total{stream=sensors}"] != 11 {
		t.Errorf("stream tuples = %v, want 11", snap["sm_net_stream_tuples_total{stream=sensors}"])
	}
}

func TestBindErrors(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc := dialWire(t, srv.Addr().String())
	defer tc.conn.Close()
	tc.hello(0)

	if ack := tc.bind(1, "nosuch", tuple.External, 0); ack.Err == "" {
		t.Error("bind to unknown stream succeeded")
	}
	// Wrong timestamp kind.
	if ack := tc.bind(2, "sensors", tuple.Internal, 0); ack.Err == "" {
		t.Error("bind with wrong TS kind succeeded")
	}
	// Wrong field kinds.
	tc.send(wire.Bind{ID: 3, Stream: "sensors", TS: tuple.External,
		Fields: []tuple.Field{{Name: "a", Kind: tuple.StringKind}, {Name: "b", Kind: tuple.FloatKind}}})
	if ack := tc.recv().(wire.BindAck); ack.Err == "" {
		t.Error("bind with wrong field kind succeeded")
	}
	// Matching explicit schema is accepted.
	tc.send(wire.Bind{ID: 4, Stream: "sensors", TS: tuple.External,
		Fields: []tuple.Field{{Name: "x", Kind: tuple.IntKind}, {Name: "y", Kind: tuple.FloatKind}}})
	if ack := tc.recv().(wire.BindAck); ack.Err != "" {
		t.Errorf("bind with matching schema failed: %s", ack.Err)
	}
	// Duplicate id.
	if ack := tc.bind(4, "sensors", tuple.External, 0); ack.Err == "" {
		t.Error("duplicate bind id succeeded")
	}
}

func TestUnboundTupleIsProtocolError(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc := dialWire(t, srv.Addr().String())
	defer tc.conn.Close()
	tc.hello(0)
	tc.send(wire.Tuple{ID: 9, T: tuple.NewData(1, tuple.Int(1), tuple.Float(1))})
	f := tc.recv()
	e, ok := f.(wire.Error)
	if !ok || e.Code != wire.ErrCodeProtocol {
		t.Fatalf("expected protocol ERROR, got %+v", f)
	}
}

// TestRetiredCapabilityBitNotGranted pins the retirement of capability bit
// 1<<0 (it was the columnar capability): a client that still offers it is answered with
// exactly the capabilities that exist, and the session carries on with row
// frames.
func TestRetiredCapabilityBitNotGranted(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc := dialWire(t, srv.Addr().String())
	defer tc.conn.Close()
	tc.send(wire.Hello{Version: wire.Version, Name: "old", Clock: 0, Flags: 1<<0 | wire.CapSeq})
	ack, ok := tc.recv().(wire.HelloAck)
	if !ok {
		t.Fatal("expected HELLO_ACK")
	}
	if ack.Flags != wire.CapSeq {
		t.Fatalf("HELLO_ACK flags = %#x, want exactly CapSeq (%#x)", ack.Flags, wire.CapSeq)
	}
	if back := tc.bind(1, "sensors", tuple.External, 0); back.Err != "" {
		t.Fatalf("bind: %s", back.Err)
	}
	batch := wire.Tuples{ID: 1}
	for i := 0; i < 4; i++ {
		batch.Batch = append(batch.Batch, tuple.NewData(tuple.Time(10+i), tuple.Int(int64(i)), tuple.Float(0.5)))
	}
	tc.send(batch)
	tc.send(wire.EOS{ID: 1})
	waitCounts(t, back, 4, 0, true)
}

// TestRetiredFrameType12IsProtocolError pins the retirement of frame type 12
// (it was TUPLES_COL): what came before it on the session is delivered, the
// frame itself earns a protocol ERROR, and the session ends.
func TestRetiredFrameType12IsProtocolError(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc := dialWire(t, srv.Addr().String())
	defer tc.conn.Close()
	tc.hello(0)
	if back := tc.bind(1, "sensors", tuple.External, 0); back.Err != "" {
		t.Fatalf("bind: %s", back.Err)
	}
	batch := wire.Tuples{ID: 1}
	for i := 0; i < 10; i++ {
		batch.Batch = append(batch.Batch, tuple.NewData(tuple.Time(10+i), tuple.Int(int64(i)), tuple.Float(0.5)))
	}
	tc.send(batch)
	// A well-formed empty TUPLES_COL for stream 1 as its last encoder wrote
	// it: u32 length, type byte 12, then stream id, 0 rows, 0 puncts, 0 columns.
	raw := []byte{7, 0, 0, 0, 12, 1, 0, 0, 0, 0, 0, 0}
	if _, err := tc.conn.Write(raw); err != nil {
		t.Fatalf("write type-12 frame: %v", err)
	}
	e, ok := tc.recv().(wire.Error)
	if !ok || e.Code != wire.ErrCodeProtocol {
		t.Fatalf("expected protocol ERROR, got %+v", e)
	}
	if !strings.Contains(e.Msg, "unknown frame type 12") {
		t.Errorf("ERROR message %q does not name the unknown type", e.Msg)
	}
	tc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := tc.r.Next(); err != io.EOF {
		t.Fatalf("session still open after ERROR: frame %v, err %v", f, err)
	}
	waitCounts(t, back, 10, 0, false)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d session(s) still live after the protocol error", srv.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCreditsTopUp(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back, Credits: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc := dialWire(t, srv.Addr().String())
	defer tc.conn.Close()
	ack := tc.hello(0)
	if ack.Credits != 8 {
		t.Fatalf("credits = %d, want 8", ack.Credits)
	}
	tc.bind(1, "sensors", tuple.External, 0)
	for i := 0; i < 4; i++ {
		tc.send(wire.Tuple{ID: 1, T: tuple.NewData(tuple.Time(i), tuple.Int(1), tuple.Float(1))})
	}
	f := tc.recv()
	d, ok := f.(wire.Demand)
	if !ok {
		t.Fatalf("expected DEMAND after half window, got %+v", f)
	}
	if d.Credits != 4 {
		t.Errorf("granted %d credits, want 4", d.Credits)
	}
}

func TestSharedStreamEOSRefcount(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a := dialWire(t, srv.Addr().String())
	defer a.conn.Close()
	a.hello(0)
	a.bind(1, "sensors", tuple.External, 0)
	b := dialWire(t, srv.Addr().String())
	defer b.conn.Close()
	b.hello(0)
	b.bind(1, "sensors", tuple.External, 0)

	// First EOS must not close the shared stream: another session still
	// holds a reference.
	a.send(wire.EOS{ID: 1})
	a.conn.Close()
	time.Sleep(50 * time.Millisecond)
	if _, _, closed := back.counts(); closed {
		t.Fatal("stream closed while a session still held it")
	}
	b.send(wire.EOS{ID: 1})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, closed := back.counts(); closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream not closed after last EOS")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrain(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	reg := metrics.NewRegistry()
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc := dialWire(t, srv.Addr().String())
	defer tc.conn.Close()
	tc.hello(0)
	tc.bind(1, "sensors", tuple.External, 0)
	tc.send(wire.Tuple{ID: 1, T: tuple.NewData(5, tuple.Int(1), tuple.Float(1))})

	done := make(chan int)
	go func() { done <- srv.Drain(2 * time.Second) }()

	// The client is told the server is draining...
	f := tc.recv()
	if e, ok := f.(wire.Error); !ok || e.Code != wire.ErrCodeDraining {
		t.Fatalf("expected draining ERROR, got %+v", f)
	}
	// ...finishes up and leaves.
	tc.send(wire.EOS{ID: 1})
	tc.conn.Close()
	if cut := <-done; cut != 0 {
		t.Errorf("drain cut %d sessions, want 0", cut)
	}
	if _, _, closed := back.counts(); !closed {
		t.Fatal("stream not closed after drain")
	}
	// New connections are refused while drained.
	if conn, err := net.Dial("tcp", srv.Addr().String()); err == nil {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Error("post-drain connection was served")
		}
		conn.Close()
	}
}

// TestNonMagicConnectionIsDropped: a peer that does not open with wire.Magic
// is closed without being served, and leaves nothing behind.
func TestNonMagicConnectionIsDropped(t *testing.T) {
	back := newRecBackend(sensorSchema(), nil)
	srv, err := server.Listen("127.0.0.1:0", server.Options{Backend: back})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() // idempotent; covers the failure paths
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "1,2,3\n")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("expected the stray text connection to be dropped")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still open after the drop", srv.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after a dropped connection")
	}
	if data, punct, _ := back.counts(); data != 0 || punct != 0 {
		t.Errorf("dropped connection ingested %d tuples, %d punctuations", data, punct)
	}
}
