// Package client is the public library for feeding tuples into a stream
// engine node (cmd/streamd, or any internal/server listener) over the wire
// protocol. It owns the client half of the protocol's timestamp-management
// contract:
//
//   - every HELLO and periodic HEARTBEAT carries the local clock, so the
//     server's per-connection skew estimator can measure the link and widen
//     the stream's skew bound δ — remote on-demand ETS then rests on a
//     measured link, not a declared constant;
//   - a stream can generate punctuation locally (Stream.Punct, or
//     automatically every AutoPunctEvery tuples for in-order feeds), making
//     a remote wrapper a first-class punctuation source (paper §3);
//   - sends respect the server's credit window (HELLO_ACK grant plus DEMAND
//     top-ups) — when the engine backpressures, the server stops granting
//     and Send blocks, extending the engine's demand/backpressure discipline
//     across the network.
//
// # When a buffered tuple is written
//
// Send encodes each tuple into its stream's pending frame and returns the
// tuple to the pool at once, so a pending frame is encoded bytes, not
// tuples, and a producer that draws its tuples from the pool gets the same
// one back on its next tuple.Get. Frames are written as TUPLES (or TUPLE)
// frames under the runtime's rule for arc batches: batching must not bring
// back the latency on-demand ETS removes, so a tuple never waits for its
// frame to fill or for a heartbeat. Options.BatchSize is a cap on the frame,
// not a count to wait for. A pending frame is written when
//
//   - the link is idle: a tuple that finds nothing written for idleGap is
//     written through on the caller's thread;
//   - it reaches BatchSize, which only a sender calling back to back does;
//   - a Punct, CloseSend or Flush on the stream, or Close on the
//     connection, comes after it: buffered tuples always reach the wire
//     before the frame that follows them;
//   - the connection's flusher goroutine, kicked when the frame turned
//     non-empty behind a busy link, gets the connection: it writes whatever
//     has coalesced by then.
//
// The server's credit window bounds what is in flight whatever the frame
// size, so writing early costs no backpressure. A HEARTBEAT is a clock
// sample for the connection and flushes nothing.
//
// Connections survive failures: with Options.Reconnect the client redials
// with exponential backoff, replays the handshake, re-binds every stream,
// and resumes. Tuples buffered but unsent at the failure are resent by the
// flusher as soon as the transport is back, without another Send. With
// Options.Sequenced the resend is idempotent: every tuple carries a
// per-stream sequence number, the server suppresses anything at or below
// its last-applied watermark, and the BIND_ACK watermark lets the client
// trim its retained frame — so reconnect and crash-recovery replay become
// effectively exactly-once for everything the client still holds. Tuples
// the client already released (flushed before the failure) that the server
// nevertheless lost — e.g. a crash past the last checkpoint cut — must be
// replayed by the application, which learns the resume point from the
// BIND_ACK watermark.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("client: connection closed")

// DefaultBatchSize is the per-stream send batch cap when Options.BatchSize
// is zero.
const DefaultBatchSize = 256

// idleGap is how long after a write the link still counts as busy. A tuple
// that arrives later is written through by its sender; one that arrives
// sooner waits for the flusher, so that a sender calling back to back
// coalesces. A frame written alone costs one small write, 5-10 µs over
// loopback, and a sender that pauses for two of those between tuples loses
// little by paying it per tuple. A saturating sender's gaps are under a
// microsecond, so the two are far apart.
const idleGap = 20 * time.Microsecond

// DefaultHeartbeatEvery is the heartbeat cadence when Options.HeartbeatEvery
// is zero.
const DefaultHeartbeatEvery = 200 * time.Millisecond

// DefaultMaxBackoff caps the reconnect backoff when Options.MaxBackoff is
// zero.
const DefaultMaxBackoff = 5 * time.Second

// Options configures a connection.
type Options struct {
	// Name identifies the client in the HELLO frame (diagnostics only).
	Name string
	// Clock supplies the client clock in µs for HELLO/HEARTBEAT skew
	// samples; defaults to wall time (time.Now().UnixMicro()).
	Clock func() int64
	// HeartbeatEvery is the heartbeat cadence (default
	// DefaultHeartbeatEvery). Negative disables heartbeats (tests).
	HeartbeatEvery time.Duration
	// BatchSize caps the tuples one TUPLES frame carries (default
	// DefaultBatchSize). It is a cap and not a count to wait for: a frame
	// goes out smaller whenever the link is idle (see the package comment),
	// and only a sender calling back to back fills it. 1 sends every tuple
	// in its own frame.
	BatchSize int
	// Trace offers the punctuation-trace capability in HELLO: when the
	// server grants it (it runs a span collector), every Punct this client
	// sends carries a fresh trace ID and the local send clock, so the
	// server can splice the network hop into the punctuation's
	// propagation timeline. Against an older server the frames stay in
	// the legacy format.
	Trace bool
	// Sequenced offers the tuple-sequencing capability in HELLO: every data
	// tuple carries a per-stream sequence number, making retained-frame
	// resend after reconnect — and replay against a crash-restored server —
	// idempotent (see wire.CapSeq). The BIND_ACK watermark trims the
	// retained frame and floors the counter; Stream.AckedSeq exposes it as
	// the application's replay resume point.
	Sequenced bool
	// Reconnect enables automatic redial with exponential backoff after a
	// connection failure; streams are re-bound transparently.
	Reconnect bool
	// MaxBackoff caps the reconnect backoff (default DefaultMaxBackoff).
	MaxBackoff time.Duration
	// Dial overrides the transport dialer (tests, TLS wrappers).
	Dial func(addr string) (net.Conn, error)
}

// Conn is one logical client connection; it may span several transport
// connections when Reconnect is on. Safe for concurrent use.
type Conn struct {
	addr string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // signalled on credits, breakage, close

	conn    net.Conn
	w       *wire.Writer
	epoch   uint64 // transport generation; stale readers detect themselves
	broken  bool
	closed  bool
	permErr error // terminal failure when Reconnect is off

	sess    uint64
	credits int64
	traceOK bool   // server granted CapTrace on the current transport
	seqOK   bool   // server granted CapSeq on the current transport
	traceCt uint64 // traces issued; IDs are (session<<32 | ct) to stay unique server-side
	streams map[uint32]*Stream
	nextID  uint32

	// planAcks tracks in-flight plan control operations by plan id (see
	// plan.go); readLoop resolves them as PLAN_ACK frames arrive.
	planAcks map[uint64]*planAck

	reconnecting bool

	// start is the origin of the connection's monotonic clock and busyUntil
	// the reading up to which the link counts as busy: idleGap past the
	// return of the last write. A Send that finds the link idle writes
	// through.
	start     time.Time
	busyUntil time.Duration

	kick    chan struct{}  // wakes the flusher: a batch began to coalesce, or the transport broke
	done    chan struct{}  // closed by Close
	bg      sync.WaitGroup // the heartbeat and flusher goroutines
	readers sync.WaitGroup

	stats Stats
}

// Stats counts a connection's lifetime activity.
type Stats struct {
	TuplesSent   uint64
	BatchesSent  uint64
	PunctSent    uint64
	Heartbeats   uint64
	Reconnects   uint64
	CreditStalls uint64 // times a Send had to wait for window
}

// Dial connects, performs the HELLO handshake, and starts the heartbeat and
// the flusher.
func Dial(addr string, opts Options) (*Conn, error) {
	c := &Conn{
		addr:    addr,
		opts:    opts,
		streams: make(map[uint32]*Stream),
		start:   time.Now(),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	if c.opts.Clock == nil {
		c.opts.Clock = func() int64 { return time.Now().UnixMicro() }
	}
	if c.opts.BatchSize <= 0 {
		c.opts.BatchSize = DefaultBatchSize
	}
	if c.opts.HeartbeatEvery == 0 {
		c.opts.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if c.opts.MaxBackoff <= 0 {
		c.opts.MaxBackoff = DefaultMaxBackoff
	}
	if c.opts.Dial == nil {
		c.opts.Dial = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, 10*time.Second)
		}
	}
	c.mu.Lock()
	err := c.connectLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.bg.Add(2)
	go c.heartbeatLoop()
	go c.flushLoop()
	return c, nil
}

// Session reports the server-assigned session id of the current transport
// connection.
func (c *Conn) Session() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess
}

// Stats snapshots the connection counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// connectLocked establishes a fresh transport connection: dial, handshake,
// re-bind existing streams, and start the reader for this epoch. Called with
// c.mu held; the mutex stays held across the dial (concurrent senders wait —
// they could not make progress anyway).
func (c *Conn) connectLocked() error {
	conn, err := c.opts.Dial(c.addr)
	if err != nil {
		return fmt.Errorf("client: dial %s: %w", c.addr, err)
	}
	w := wire.NewWriter(conn)
	rd := wire.NewReader(conn)
	fail := func(err error) error {
		conn.Close()
		return err
	}
	if err := w.WriteMagic(); err != nil {
		return fail(err)
	}
	hello := wire.Hello{Version: wire.Version, Name: c.opts.Name, Clock: c.opts.Clock()}
	if c.opts.Trace {
		hello.Flags |= wire.CapTrace
	}
	if c.opts.Sequenced {
		hello.Flags |= wire.CapSeq
	}
	if err := w.WriteFrame(hello); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := rd.Next()
	if err != nil {
		return fail(fmt.Errorf("client: handshake: %w", err))
	}
	ack, ok := f.(wire.HelloAck)
	if !ok {
		if e, isErr := f.(wire.Error); isErr {
			return fail(fmt.Errorf("client: server refused: %s", e.Msg))
		}
		return fail(fmt.Errorf("client: expected HELLO_ACK, got %v", f.Type()))
	}
	// Re-bind every stream of the previous epoch, synchronously: the server
	// answers BIND in order, so read acks until each bind is resolved.
	for id, s := range c.streams {
		if s.eos {
			continue
		}
		if err := w.WriteFrame(s.bindFrame(id)); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	pending := 0
	for _, s := range c.streams {
		if !s.eos {
			pending++
		}
	}
	for pending > 0 {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := rd.Next()
		if err != nil {
			return fail(fmt.Errorf("client: re-bind: %w", err))
		}
		switch f := f.(type) {
		case wire.BindAck:
			if s := c.streams[f.ID]; s != nil {
				if !s.ackDone {
					// A Bind caller is still waiting on the first ack.
					s.ackDone, s.ackErr = true, f.Err
				} else if f.Err != "" {
					s.err = fmt.Errorf("client: re-bind %q: %s", s.name, f.Err)
				}
				if f.Err == "" {
					s.applyAckSeq(f.Seq)
				}
				pending--
			}
		case wire.Demand:
			ack.Credits += f.Credits
		case wire.Error:
			return fail(fmt.Errorf("client: re-bind refused: %s", f.Msg))
		default:
			return fail(fmt.Errorf("client: unexpected %v during re-bind", f.Type()))
		}
	}
	conn.SetReadDeadline(time.Time{})

	c.conn = conn
	c.w = w
	c.sess = ack.Session
	c.credits = int64(ack.Credits)
	c.traceOK = ack.Flags&wire.CapTrace != 0
	c.seqOK = ack.Flags&wire.CapSeq != 0
	c.broken = false
	c.epoch++
	c.readers.Add(1)
	go c.readLoop(conn, rd, c.epoch)
	c.cond.Broadcast()
	return nil
}

// readLoop consumes server frames for one transport epoch: credit grants,
// bind acks (steady-state ones arrive here), and errors.
func (c *Conn) readLoop(conn net.Conn, rd *wire.Reader, epoch uint64) {
	defer c.readers.Done()
	for {
		f, err := rd.Next()
		if err != nil {
			c.mu.Lock()
			if c.epoch == epoch {
				c.markBrokenLocked()
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		if c.epoch != epoch {
			c.mu.Unlock()
			return // a reconnect already superseded this transport
		}
		switch f := f.(type) {
		case wire.Demand:
			c.credits += int64(f.Credits)
			c.cond.Broadcast()
		case wire.BindAck:
			if s := c.streams[f.ID]; s != nil && !s.ackDone {
				s.ackDone, s.ackErr = true, f.Err
				if f.Err == "" {
					s.applyAckSeq(f.Seq)
				}
				c.cond.Broadcast()
			}
		case wire.PlanAck:
			if pa := c.planAcks[f.Plan]; pa != nil && !pa.done {
				pa.done, pa.err = true, f.Err
				c.cond.Broadcast()
			}
		case wire.Error:
			// Draining or protocol complaint: this transport is done. With
			// Reconnect on, the next operation redials (and backs off while
			// the server is away).
			c.markBrokenLocked()
			c.mu.Unlock()
			return
		default:
			// Tolerate unknown server chatter (forward compatibility).
		}
		c.mu.Unlock()
	}
}

// markBrokenLocked declares the current transport dead and wakes everyone
// blocked on it, the flusher included: it redials and resends whatever the
// streams still hold, so retained tuples do not wait for the next Send.
func (c *Conn) markBrokenLocked() {
	if c.broken {
		return
	}
	c.broken = true
	if c.conn != nil {
		c.conn.Close()
	}
	if !c.opts.Reconnect && c.permErr == nil {
		c.permErr = errors.New("client: connection lost")
	}
	c.cond.Broadcast()
	c.kickFlusher()
}

// ensureLocked blocks until the connection is usable, reconnecting if
// allowed. Returns the terminal error otherwise.
func (c *Conn) ensureLocked() error {
	for {
		if c.closed {
			return ErrClosed
		}
		if c.permErr != nil {
			return c.permErr
		}
		if !c.broken {
			return nil
		}
		if !c.opts.Reconnect {
			return errors.New("client: connection lost")
		}
		if c.reconnecting {
			c.cond.Wait() // someone else is redialing
			continue
		}
		c.reconnecting = true
		backoff := 50 * time.Millisecond
		for {
			if err := c.connectLocked(); err == nil {
				c.stats.Reconnects++
				break
			}
			c.mu.Unlock()
			select {
			case <-time.After(backoff):
			case <-c.done:
			}
			c.mu.Lock()
			if c.closed {
				break
			}
			if backoff *= 2; backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
		}
		c.reconnecting = false
		c.cond.Broadcast()
	}
}

// takeCredits blocks until at least lo credits are available (reconnecting
// as needed) and consumes as many as there are, up to hi.
func (c *Conn) takeCredits(lo, hi int) (int, error) {
	stalled := false
	for {
		if err := c.ensureLocked(); err != nil {
			return 0, err
		}
		if c.credits >= int64(lo) {
			n := int(min(int64(hi), c.credits))
			c.credits -= int64(n)
			return n, nil
		}
		if !stalled {
			stalled = true
			c.stats.CreditStalls++
		}
		c.cond.Wait()
	}
}

// writeLocked writes one frame and flushes; a failure marks the transport
// broken and is returned (callers holding unsent data keep it for the retry).
func (c *Conn) writeLocked(f wire.Frame) error {
	if err := c.w.WriteFrame(f); err != nil {
		c.markBrokenLocked()
		return err
	}
	if err := c.w.Flush(); err != nil {
		c.markBrokenLocked()
		return err
	}
	c.busyUntil = time.Since(c.start) + idleGap
	return nil
}

func (c *Conn) heartbeatLoop() {
	defer c.bg.Done()
	if c.opts.HeartbeatEvery < 0 {
		return
	}
	tick := time.NewTicker(c.opts.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		if !c.closed && !c.broken && c.writeLocked(wire.Heartbeat{Clock: c.opts.Clock()}) == nil {
			c.stats.Heartbeats++
		}
		c.mu.Unlock()
	}
}

// kickFlusher wakes the flusher without blocking; a kick already waiting
// covers this one.
func (c *Conn) kickFlusher() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// flushLoop is the connection's flusher: it writes the batches that no Send
// will. A Send kicks it when a batch begins to coalesce behind a busy link,
// and markBrokenLocked when the transport dies; each kick writes everything
// pending. What a sender calling back to back adds before the flusher has
// the lock goes out in the same frame.
func (c *Conn) flushLoop() {
	defer c.bg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-c.kick:
		}
		c.mu.Lock()
		c.flushPendingLocked()
		c.mu.Unlock()
	}
}

// flushPendingLocked writes every pending frame, redialing first if the
// transport is down.
func (c *Conn) flushPendingLocked() {
	for _, s := range c.streams {
		if len(s.ends) == 0 || s.err != nil {
			continue // nothing pending, or no binding left to send it to
		}
		if c.ensureLocked() != nil {
			return // closed, or lost for good: the frames stay where they are
		}
		s.flushLocked() // a failure kicks this loop again through markBrokenLocked
	}
}

// Flush writes out every stream's buffered tuples.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(); err != nil {
		return err
	}
	for _, s := range c.streams {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes buffered tuples (best effort), stops the heartbeat and the
// flusher, and tears the connection down; nothing is written once it has
// returned. It does not send EOS — use Stream.CloseSend for streams that
// should end.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	if !c.broken {
		for _, s := range c.streams {
			s.flushLocked()
		}
	}
	c.closed = true
	if c.conn != nil {
		c.conn.Close()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.done)
	c.bg.Wait()
	c.readers.Wait()
	return nil
}
