package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// session is one accepted connection: a reader goroutine owning the socket,
// the per-connection skew estimator, and the session's stream bindings.
type session struct {
	s    *Server
	id   uint64
	span string // "session:<id>", the node name of this session's trace spans
	conn net.Conn

	wmu sync.Mutex // guards w: Drain writes concurrently with the reader
	w   *wire.Writer

	skew  SkewEstimator
	binds map[uint32]*binding
	caps  uint16 // capability bits granted in HELLO_ACK (CapSeq, CapTrace)

	consumed uint32 // tuples consumed since the last credit grant

	bytesIn  uint64 // last published reader byte count
	bytesOut uint64 // last published writer byte count

	draining atomic.Bool
	done     chan struct{}
}

// binding is one BIND: a session-local stream id mapped onto server-wide
// stream state.
type binding struct {
	st        *streamState
	baseDelta tuple.Time // max(declared δ, client BIND δ) before skew widening
	released  bool
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	return &session{
		s:     s,
		id:    id,
		span:  fmt.Sprintf("session:%d", id),
		conn:  conn,
		binds: make(map[uint32]*binding),
		done:  make(chan struct{}),
	}
}

// run handles the whole connection, then releases every binding the client
// left open. It never panics the server on a misbehaving peer: protocol
// violations get a best-effort ERROR frame and a close.
func (c *session) run() {
	defer close(c.done)
	defer c.conn.Close()
	br := bufio.NewReaderSize(c.conn, 32<<10)
	head, err := br.Peek(len(wire.Magic))
	if err != nil {
		return // died before identifying itself
	}
	if !bytes.Equal(head, wire.Magic[:]) {
		return // not a protocol speaker; drop the stray connection
	}
	br.Discard(len(wire.Magic))
	c.runBinary(br)
	// Bindings without an explicit EOS release their reference but leave the
	// stream open: an abrupt disconnect is the engine watchdog's problem
	// (forced ETS, dead-source EOS), not an excuse to end the stream early.
	for _, b := range c.binds {
		if !b.released {
			b.released = true
			c.s.releaseStream(b.st, false)
		}
	}
}

// --- binary protocol ---

func (c *session) runBinary(br *bufio.Reader) {
	s := c.s
	rd := wire.NewReaderBuffered(br)
	c.w = wire.NewWriter(c.conn)

	// The opening frame must be HELLO; it doubles as the first skew sample.
	f, err := rd.Next()
	if err != nil {
		return
	}
	c.noteRead(rd)
	hello, ok := f.(wire.Hello)
	if !ok {
		c.protoError("expected HELLO, got %v", f.Type())
		return
	}
	if hello.Version < 1 {
		c.protoError("unsupported protocol version %d", hello.Version)
		return
	}
	c.skew.Observe(hello.Clock, int64(s.now()))
	ver := uint16(wire.Version)
	if hello.Version < ver {
		ver = hello.Version
	}
	// Grant the intersection of the client's offered capabilities and ours.
	c.caps = hello.Flags & wire.CapSeq
	if c.s.spans != nil {
		// Trace context is only useful (and only decoded into span events)
		// when a collector exists server-side.
		c.caps |= hello.Flags & wire.CapTrace
	}
	if !c.send(wire.HelloAck{Version: ver, Session: c.id, Credits: s.credits, Flags: c.caps}) {
		return
	}
	s.m.credits.Add(uint64(s.credits))

	for {
		f, err := rd.Next()
		if err != nil {
			// A clean close (EOF), a cut connection, or the drain deadline
			// ends the session quietly; a malformed frame earns the peer a
			// best-effort ERROR first.
			if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !isNetErr(err) {
				c.protoError("%v", err)
			}
			return
		}
		c.noteRead(rd)
		switch f := f.(type) {
		case wire.Bind:
			c.handleBind(f)
		case wire.Tuple:
			b := c.active(f.ID)
			if b == nil {
				rd.Release(f.T)
				c.protoError("TUPLE on unbound stream id %d", f.ID)
				return
			}
			if f.Seq != 0 && c.caps&wire.CapSeq != 0 && b.st.admitSeq(f.Seq, 1) > 0 {
				// A resend the stream already applied (retained-batch replay
				// after reconnect or crash recovery): suppress, but still
				// return the credit the client spent on it.
				rd.Release(f.T)
				s.m.tuplesDedup.Inc()
				c.grant(1)
				continue
			}
			s.m.tuplesIn.Inc()
			b.st.tuples.Inc()
			b.st.sink.Ingest(f.T)
			c.grant(1)
		case wire.Tuples:
			b := c.active(f.ID)
			if b == nil {
				for _, t := range f.Batch {
					rd.Release(t)
				}
				c.protoError("TUPLES on unbound stream id %d", f.ID)
				return
			}
			n := uint32(len(f.Batch))
			batch := f.Batch
			if f.Seq != 0 && c.caps&wire.CapSeq != 0 {
				// The batch occupies Seq..Seq+n-1; drop the already-applied
				// prefix (a resend overlapping the dedupe watermark).
				if drop := b.st.admitSeq(f.Seq, len(batch)); drop > 0 {
					for _, t := range batch[:drop] {
						rd.Release(t)
					}
					s.m.tuplesDedup.Add(uint64(drop))
					batch = batch[drop:]
				}
			}
			if len(batch) > 0 {
				s.m.tuplesIn.Add(uint64(len(batch)))
				b.st.tuples.Add(uint64(len(batch)))
				b.st.sink.IngestBatch(batch)
			}
			c.grant(n)
		case wire.Punct:
			b := c.active(f.ID)
			if b == nil {
				c.protoError("PUNCT on unbound stream id %d", f.ID)
				return
			}
			// Only an external stream can accept a client's bound: for
			// internal and latent streams the server (or nobody) is the
			// timestamp authority, so the value is dropped on the floor.
			if b.st.sch.TS == tuple.External && f.TS == tuple.External {
				s.m.punctIn.Inc()
				p := tuple.GetPunct(f.ETS)
				if f.Trace != 0 && c.caps&wire.CapTrace != 0 && s.spans != nil {
					// Splice the network hop into the timeline: the
					// client's send instant mapped onto the server
					// clock by the skew estimate (Offset ≈ server −
					// client, the least-delay sample), then our receive
					// instant. The trace ID rides the injected tuple
					// into the engine.
					p.Trace = f.Trace
					if c.skew.Samples() > 0 {
						s.spans.RecordAt(f.Trace, c.span, obs.PhaseNetSend,
							f.Clock+c.skew.Offset(), f.ETS)
					}
					// Both network phases land on the server clock (the
					// axis the skew estimate maps onto) — Options.Now
					// and the collector clock must share it.
					s.spans.RecordAt(f.Trace, c.span, obs.PhaseNetRecv,
						int64(s.now()), f.ETS)
				}
				b.st.sink.Ingest(p)
			} else {
				s.m.punctIgnored.Inc()
			}
		case wire.Heartbeat:
			s.m.heartbeats.Inc()
			c.skew.Observe(f.Clock, int64(s.now()))
			c.applySkew()
		case wire.EOS:
			b := c.active(f.ID)
			if b == nil {
				c.protoError("EOS on unbound stream id %d", f.ID)
				return
			}
			b.released = true
			c.s.releaseStream(b.st, true)
		case wire.Error:
			s.m.errors.Inc()
			return
		case wire.Demand:
			// Credits flow server→client; a client DEMAND is advisory
			// (a poll for liveness) and needs no reply.
		case wire.PlanDeploy:
			c.handlePlan(f.Plan, func() error { return s.opts.Plans.PlanDeploy(f.Plan, f.Spec) })
		case wire.PlanStart:
			c.handlePlan(f.Plan, func() error { return s.opts.Plans.PlanStart(f.Plan) })
		case wire.PlanStop:
			c.handlePlan(f.Plan, func() error { return s.opts.Plans.PlanStop(f.Plan) })
		default:
			c.protoError("unexpected frame %v", f.Type())
			return
		}
	}
}

func (c *session) handleBind(f wire.Bind) {
	s := c.s
	if _, dup := c.binds[f.ID]; dup {
		c.send(wire.BindAck{ID: f.ID, Err: fmt.Sprintf("stream id %d already bound", f.ID)})
		return
	}
	st, err := s.openStream(f.Stream)
	if err != nil {
		c.send(wire.BindAck{ID: f.ID, Err: err.Error()})
		return
	}
	if err := checkBind(st.sch, f); err != nil {
		s.releaseStream(st, false)
		c.send(wire.BindAck{ID: f.ID, Err: err.Error()})
		return
	}
	base := f.Delta
	if st.src != nil && st.src.Delta() > base {
		base = st.src.Delta()
	}
	c.binds[f.ID] = &binding{st: st, baseDelta: base}
	s.m.binds.Inc()
	if s.trace != nil {
		s.trace.Emit(metrics.EvNetBind, "stream:"+st.name, s.now(), int64(c.id))
	}
	// The client's declared δ may already widen the source's bound, and the
	// HELLO sample plus any prior heartbeats may widen it further.
	c.applySkew()
	ack := wire.BindAck{ID: f.ID}
	if c.caps&wire.CapSeq != 0 {
		// Tell the producer where the stream's dedupe watermark stands so it
		// can trim its retained resend batch before replaying.
		ack.Seq = st.ingested.Load()
	}
	c.send(ack)
}

// checkBind validates the client's declared schema against the server's.
// Field kinds and count must match exactly when declared (names are the
// client's business); the timestamp kind must always match — a client
// assuming external timestamps on an internal stream would be promising
// bounds the server will overwrite.
func checkBind(sch *tuple.Schema, f wire.Bind) error {
	if f.TS != sch.TS {
		return fmt.Errorf("server: stream %q has timestamp kind %v, client declared %v", sch.Name, sch.TS, f.TS)
	}
	if len(f.Fields) == 0 {
		return nil // client trusts the server's schema
	}
	if len(f.Fields) != len(sch.Fields) {
		return fmt.Errorf("server: stream %q has %d fields, client declared %d", sch.Name, len(sch.Fields), len(f.Fields))
	}
	for i, fd := range f.Fields {
		if fd.Kind != sch.Fields[i].Kind {
			return fmt.Errorf("server: stream %q field %d is %v, client declared %v", sch.Name, i, sch.Fields[i].Kind, fd.Kind)
		}
	}
	return nil
}

// active returns the binding for a stream id, or nil if absent or already
// EOS'd (data after EOS is a protocol violation).
func (c *session) active(id uint32) *binding {
	b := c.binds[id]
	if b == nil || b.released {
		return nil
	}
	return b
}

// applySkew widens every bound external source's δ to the binding's base
// plus the connection's measured offset spread. Widening-only end to end, so
// every promised ETS stays a valid lower bound.
func (c *session) applySkew() {
	spread := c.skew.Spread()
	for _, b := range c.binds {
		if b.released || b.st.src == nil || b.st.sch.TS != tuple.External {
			continue
		}
		d := b.baseDelta + spread
		if d > b.st.src.Delta() {
			b.st.src.RaiseDelta(d)
			eff := b.st.src.Delta()
			b.st.skewUs.Set(int64(eff))
			if c.s.trace != nil {
				c.s.trace.Emit(metrics.EvNetSkew, "stream:"+b.st.name, c.s.now(), int64(eff))
			}
		}
	}
}

// handlePlan runs one distributed-execution control operation through the
// server's PlanHandler and answers with a PLAN_ACK. A server without a
// handler rejects per frame (the session stays usable — a coordinator
// probing a non-worker deserves a diagnostic, not a cut connection), and a
// handler error travels back verbatim for the coordinator to abort on.
func (c *session) handlePlan(plan uint64, op func() error) {
	c.s.m.planOps.Inc()
	var msg string
	if c.s.opts.Plans == nil {
		msg = "server does not accept plan deployments"
	} else if err := op(); err != nil {
		msg = err.Error()
	}
	if msg != "" {
		c.s.m.planErrors.Inc()
	}
	c.send(wire.PlanAck{Plan: plan, Err: msg})
}

// grant accounts n consumed tuples and tops the client's credit window up
// with a DEMAND once half the window has been consumed — the wire form of
// the engine's upstream demand signalling, repurposed as flow control: when
// the engine backpressures, the session blocks in Ingest, stops granting,
// and the client runs out of window.
func (c *session) grant(n uint32) {
	c.consumed += n
	if c.consumed < c.s.credits/2 {
		return
	}
	n, c.consumed = c.consumed, 0
	if c.send(wire.Demand{Credits: n}) {
		c.s.m.demandSent.Inc()
		c.s.m.credits.Add(uint64(n))
		if c.s.trace != nil {
			c.s.trace.Emit(metrics.EvNetDemand, "server", c.s.now(), int64(n))
		}
	}
}

// send writes one frame and flushes (control frames are rare; tuple traffic
// is client→server only). Reports false once the connection is broken.
func (c *session) send(f wire.Frame) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w == nil {
		return false
	}
	if err := c.w.WriteFrame(f); err != nil {
		return false
	}
	if err := c.w.Flush(); err != nil {
		return false
	}
	c.s.m.framesOut.Inc()
	nb := c.w.Bytes()
	c.s.m.bytesOut.Add(nb - c.bytesOut)
	c.bytesOut = nb
	return true
}

// protoError reports a protocol violation to the peer (best effort) before
// the caller closes the session.
func (c *session) protoError(format string, args ...any) {
	c.s.m.errors.Inc()
	c.send(wire.Error{Code: wire.ErrCodeProtocol, Msg: fmt.Sprintf(format, args...)})
}

// noteRead publishes reader-side frame/byte counters after each frame.
func (c *session) noteRead(rd *wire.Reader) {
	c.s.m.framesIn.Inc()
	nb := rd.Bytes()
	c.s.m.bytesIn.Add(nb - c.bytesIn)
	c.bytesIn = nb
}

// beginDrain tells the client the server is going away and bounds how long
// the session may keep the socket. Called from the Drain goroutine.
func (c *session) beginDrain(deadline time.Time) {
	if !c.draining.CompareAndSwap(false, true) {
		return
	}
	if c.w != nil {
		c.send(wire.Error{Code: wire.ErrCodeDraining, Msg: "server draining"})
	}
	c.conn.SetReadDeadline(deadline)
}

// waitUntil blocks until the session ends or the deadline passes, reporting
// whether it ended.
func (c *session) waitUntil(deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		select {
		case <-c.done:
			return true
		default:
			return false
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.done:
		return true
	case <-t.C:
		return false
	}
}

// isNetErr reports whether err came from the transport (timeout, reset,
// closed socket) rather than the protocol layer.
func isNetErr(err error) bool {
	var ne net.Error
	return errors.Is(err, net.ErrClosed) || errors.As(err, &ne)
}
