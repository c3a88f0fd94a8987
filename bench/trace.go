package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// The traced pass measures the layers from outside, by three means: deltas
// of public counters at phase boundaries (harness.go's marks), the spans
// below around every call into a layer's public function, and the probes in
// probes.go. It uses only existing options: runtime and server Options.Spans
// and client.Options.Dial.

// span is one timed call. Spans are kept in memory and written out when the
// pass ends.
type span struct {
	name   string
	ref    int64 // arrival index, cycle count, or 0
	parent int32
	start  int64 // harness ns
	end    int64
	child  int64 // ns covered by direct children
}

// satSpanEvery thins the saturated phase's spans: every call is timed for the
// blocked share, but only one in satSpanEvery is kept as a span, or a single-
// tuple workload would keep millions.
const satSpanEvery = 256

// tracer collects the traced pass's spans and ingress timings. A nil tracer
// is the untraced pass: begin, end and the other phase-level methods are
// no-ops on it.
type tracer struct {
	clk   clock
	w     *workload
	spans *obs.Collector

	mu   sync.Mutex
	recs []span

	// The open phase's span, the driver's current phase and the open send
	// span (or -1); timedConn reads all three from the heartbeat goroutine.
	phaseSpan atomic.Int32
	phase     atomic.Int32
	curSend   atomic.Int32

	// inSend and sends time every feeder call, by phase.
	inSend    [numPhases]int64
	sends     [numPhases]int64
	sendStart int64
	sendSpan  int32

	conns []*timedConn
	wire  *wireTimes

	// hops holds the punctuation timelines read at the end of the paced
	// phase, before the saturated phase floods the collector's ring.
	hops []obs.Timeline
}

func newTracer(w *workload) *tracer {
	t := &tracer{w: w}
	t.phaseSpan.Store(-1)
	t.curSend.Store(-1)
	return t
}

// start gives the pass's clock to the tracer.
func (t *tracer) start(clk clock) {
	if t != nil {
		t.clk = clk
	}
}

func (t *tracer) beginAt(name string, ref int64, parent int32, at int64) int32 {
	t.mu.Lock()
	t.recs = append(t.recs, span{name: name, ref: ref, parent: parent, start: at})
	i := int32(len(t.recs) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) endAt(i int32, at int64) {
	t.mu.Lock()
	s := &t.recs[i]
	s.end = at
	if s.parent >= 0 {
		t.recs[s.parent].child += at - s.start
	}
	t.mu.Unlock()
}

// begin opens a span under the current phase's span.
func (t *tracer) begin(name string, ref int64) int32 {
	if t == nil {
		return -1
	}
	return t.beginAt(name, ref, t.phaseSpan.Load(), t.clk.ns())
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.endAt(i, t.clk.ns())
	t.phaseSpan.CompareAndSwap(i, -1)
}

func (t *tracer) beginPhase(name string, phase int) int32 {
	if t == nil {
		return -1
	}
	t.phase.Store(int32(phase))
	i := t.beginAt(name, 0, -1, t.clk.ns())
	t.phaseSpan.Store(i)
	return i
}

// instruments returns the options the kept set-up is built with.
func (t *tracer) instruments(rec *recorder) instruments {
	if t == nil {
		return instruments{}
	}
	t.spans = obs.New(obs.DefaultRingSize)
	t.spans.SetClock(func() int64 { return int64(t.clk.us()) })
	ins := instruments{spans: t.spans}
	if t.w.net {
		t.wire = newWireTimes()
		rec.wire = t.wire
		ins.dial = func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 10*time.Second)
			if err != nil {
				return nil, err
			}
			tc := &timedConn{Conn: c, tr: t}
			tc.parse.Store(true)
			t.conns = append(t.conns, tc)
			return tc, nil
		}
	}
	return ins
}

// setupSpans records the kept set-up's layers as spans ending now.
func (t *tracer) setupSpans(st setupTimes) {
	if t == nil {
		return
	}
	end := t.clk.ns()
	root := t.beginAt("setup", 0, -1, end-st.total())
	at := end - st.total()
	for _, p := range []struct {
		name string
		ns   int64
	}{{"cql.compile", st.compile}, {"runtime.build_start", st.build}, {"client.listen_dial_bind", st.connect}} {
		if p.ns > 0 {
			t.endAt(t.beginAt(p.name, 0, root, at), at+p.ns)
			at += p.ns
		}
	}
	t.endAt(root, end)
}

// sendName names the layer function env.send calls for this workload.
func (t *tracer) sendName() string {
	switch {
	case t.w.net:
		return "client.SendBatch"
	case t.w.burst == 1:
		return "runtime.Ingest"
	}
	return "runtime.IngestBatch"
}

func (t *tracer) beginSend(i int64, phase int) {
	t.sendStart = t.clk.ns()
	t.sendSpan = -1
	if phase != phaseSat || t.sends[phaseSat]%satSpanEvery == 0 {
		t.sendSpan = t.beginAt(t.sendName(), i, t.phaseSpan.Load(), t.sendStart)
		t.curSend.Store(t.sendSpan)
	}
}

func (t *tracer) endSend(phase int) {
	now := t.clk.ns()
	if t.sendSpan >= 0 {
		t.curSend.Store(-1)
		t.endAt(t.sendSpan, now)
	}
	t.inSend[phase] += now - t.sendStart
	t.sends[phase]++
}

// pacedDone reads what the saturated phase would overwrite.
func (t *tracer) pacedDone() {
	if t == nil {
		return
	}
	t.hops = t.spans.Timelines(0)
	for _, c := range t.conns {
		c.parse.Store(false)
	}
}

// writeSpans writes the spans as JSON lines; self_ns is a span's duration
// minus the part its direct children cover.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Name   string `json:"name"`
		Ref    int64  `json:"ref"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.recs {
		if err := enc.Encode(line{i, s.parent, s.name, s.ref, s.start, s.end, s.end - s.start - s.child}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedConn is the net.Conn handed to the client through Options.Dial. It
// records a span for each Write and, through the paced phase, decodes the
// frames it carries to learn when each tuple's first byte reached the socket.
type timedConn struct {
	net.Conn
	tr *tracer

	satWrites int64
	parse     atomic.Bool // true until the paced phase ends
	started   bool        // the connection preamble has been skipped
	pending   []byte
	firstAt   int64 // Write start of the frame at the head of pending
	mag       tuple.Magazine
}

func (c *timedConn) Write(p []byte) (int, error) {
	t := c.tr
	ph := int(t.phase.Load())
	start := t.clk.ns()
	n, err := c.Conn.Write(p)
	end := t.clk.ns()
	// The saturated phase keeps one write span in 16.
	if ph == phaseSat {
		c.satWrites++
	}
	if ph != phaseSat || c.satWrites%16 == 0 {
		// A write under an open send is that send's child; the heartbeat's
		// flush runs while a send waits for the connection lock, so it is
		// charged the same way.
		parent := t.curSend.Load()
		if parent < 0 {
			parent = t.phaseSpan.Load()
		}
		t.endAt(t.beginAt("net.Write", int64(n), parent, start), end)
	}
	if c.parse.Load() {
		c.decode(p[:n], start)
	}
	return n, err
}

// decode splits the written bytes into frames and notes, for each data
// tuple, the wait from its due time to the Write that carried it.
func (c *timedConn) decode(p []byte, at int64) {
	if len(c.pending) == 0 {
		c.firstAt = at
	}
	c.pending = append(c.pending, p...)
	if !c.started {
		if len(c.pending) < len(wire.Magic) {
			return
		}
		c.pending = c.pending[len(wire.Magic):]
		c.started = true
	}
	for len(c.pending) >= 5 {
		n := int(binary.LittleEndian.Uint32(c.pending[:4]))
		if len(c.pending) < 5+n {
			return
		}
		typ := wire.FrameType(c.pending[4])
		if typ == wire.TypeTuple || typ == wire.TypeTuples {
			if f, err := wire.DecodeFrame(typ, c.pending[5:5+n], &c.mag); err == nil {
				switch f := f.(type) {
				case wire.Tuple:
					c.note(f.T)
				case wire.Tuples:
					for _, tp := range f.Batch {
						c.note(tp)
					}
				}
			}
		}
		c.pending = c.pending[5+n:]
		c.firstAt = at
	}
	if len(c.pending) == 0 {
		c.pending = c.pending[:0:0]
	}
}

func (c *timedConn) note(tp *tuple.Tuple) {
	c.tr.wire.written(tp.Vals[1].AsInt(), tp.Vals[2].AsInt(), c.firstAt)
	c.mag.Put(tp)
}

// wireTimes joins the client's side of a tuple's journey to the sink's: the
// payload x identifies the tuple on both.
type wireTimes struct {
	mu      sync.Mutex
	at      map[int64]int64 // x → harness ns of the carrying Write
	wait    hist            // due → Write
	toSink  hist            // Write → sink
	pacedLo int64
}

func newWireTimes() *wireTimes { return &wireTimes{at: make(map[int64]int64)} }

// from sets the due time below which tuples are warm-up and not noted.
func (w *wireTimes) from(pacedStart int64) {
	w.mu.Lock()
	w.pacedLo = pacedStart
	w.mu.Unlock()
}

func (w *wireTimes) written(x, due, at int64) {
	w.mu.Lock()
	if due >= w.pacedLo {
		w.wait.record(at - due)
		w.at[x] = at
	}
	w.mu.Unlock()
}

func (w *wireTimes) sunk(x, now int64) {
	w.mu.Lock()
	if at, ok := w.at[x]; ok {
		w.toSink.record(now - at)
		delete(w.at, x)
	}
	w.mu.Unlock()
}
