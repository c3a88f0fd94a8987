package client

import (
	"fmt"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// StreamOptions configures one bound stream.
type StreamOptions struct {
	// Delta declares the feed's skew bound δ in µs (external streams): the
	// maximum lag between a tuple's timestamp advancing and the next
	// tuple's timestamp. The server widens it further with its measured
	// per-connection spread.
	Delta tuple.Time
	// Fields optionally declares the schema for server-side validation
	// (kinds must match the declared stream). Empty trusts the server.
	Fields []tuple.Field
	// AutoPunctEvery, when > 0, emits a punctuation carrying the maximum
	// timestamp sent so far after every N data tuples. Only sound for
	// feeds that send tuples in timestamp order — the bound promises no
	// later tuple will be smaller.
	AutoPunctEvery int
}

// Stream is one bound stream on a connection. Safe for concurrent use.
type Stream struct {
	c    *Conn
	id   uint32
	name string
	ts   tuple.TSKind
	opts StreamOptions

	// All fields below are guarded by c.mu.
	batch      []*tuple.Tuple
	maxTs      tuple.Time
	hasTs      bool
	sincePunct int
	eos        bool
	err        error

	// seq is the last sequence number assigned (Options.Sequenced): tuples
	// are numbered seq+1, seq+2, … as Send buffers them, and a BIND_ACK
	// watermark floors it so post-recovery sends never collide with
	// sequence numbers the server already applied.
	seq uint64
	// acked is the last BIND_ACK dedupe watermark the server reported —
	// the application's replay resume point after a server crash.
	acked uint64

	ackDone bool
	ackErr  string
}

func (s *Stream) bindFrame(id uint32) wire.Frame {
	return wire.Bind{ID: id, Stream: s.name, TS: s.ts, Delta: s.opts.Delta, Fields: s.opts.Fields}
}

// Bind registers a stream on the connection and waits for the server's
// acknowledgement. ts must match the stream's declared timestamp kind.
func (c *Conn) Bind(stream string, ts tuple.TSKind, opts StreamOptions) (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(); err != nil {
		return nil, err
	}
	c.nextID++
	id := c.nextID
	s := &Stream{c: c, id: id, name: stream, ts: ts, opts: opts}
	c.streams[id] = s
	c.writeLocked(s.bindFrame(id)) // a failure here resolves via reconnect re-bind
	for !s.ackDone {
		if c.closed || c.permErr != nil {
			delete(c.streams, id)
			if c.closed {
				return nil, ErrClosed
			}
			return nil, c.permErr
		}
		if c.broken {
			// ensureLocked redials; connectLocked replays the BIND and
			// resolves the ack synchronously.
			if err := c.ensureLocked(); err != nil {
				delete(c.streams, id)
				return nil, err
			}
			continue
		}
		c.cond.Wait()
	}
	if s.ackErr != "" {
		delete(c.streams, id)
		return nil, fmt.Errorf("client: bind %q: %s", stream, s.ackErr)
	}
	return s, nil
}

// Send hands one tuple to the stream, taking ownership of it. The tuple is
// written at once when the link is idle and otherwise joins the stream's
// pending batch, which the package comment's flush triggers bound. Send
// blocks while the server's credit window is exhausted — the networked form
// of engine backpressure — and while a broken connection reconnects. A
// transport failure after buffering is not an error: the batch is retained
// and resent on the next transport.
func (s *Stream) Send(t *tuple.Tuple) error {
	one := [1]*tuple.Tuple{t}
	return s.SendBatch(one[:])
}

// SendBatch sends a slice of tuples (ownership of the tuples transfers; the
// slice stays the caller's). It takes the connection lock and credits once
// per chunk, a chunk being what fits under the frame cap, before the next
// automatic punctuation and in the free credit window, so a batch larger
// than the window drains through it.
func (s *Stream) SendBatch(ts []*tuple.Tuple) error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(ts) > 0 {
		if s.err != nil {
			return s.err
		}
		if s.eos {
			return fmt.Errorf("client: send on closed stream %q", s.name)
		}
		room := c.opts.BatchSize - len(s.batch)
		if every := s.opts.AutoPunctEvery; every > 0 {
			room = min(room, every-s.sincePunct)
		}
		// A batch retained past the cap by a failed write still takes one.
		n, err := c.takeCredits(1, min(max(room, 1), len(ts)))
		if err != nil {
			return err
		}
		wasEmpty := len(s.batch) == 0
		for _, t := range ts[:n] {
			if c.opts.Sequenced {
				s.seq++
				t.Seq = s.seq
			}
			if !s.hasTs || t.Ts > s.maxTs {
				s.maxTs, s.hasTs = t.Ts, true
			}
		}
		s.batch = append(s.batch, ts[:n]...)
		s.sincePunct += n
		ts = ts[n:]
		s.queuedLocked(wasEmpty)
		s.autoPunctLocked()
	}
	return nil
}

// queuedLocked applies the sender's flush triggers after tuples joined the
// pending batch: the size cap, and write-through on an idle link. A batch
// that begins to coalesce instead is the flusher's to write.
func (s *Stream) queuedLocked(wasEmpty bool) {
	c := s.c
	if len(s.batch) >= c.opts.BatchSize {
		s.flushLocked()
		return
	}
	if !wasEmpty {
		return // already coalescing, and the flusher knows
	}
	if time.Since(c.start) >= c.busyUntil {
		s.flushLocked()
		return
	}
	c.kickFlusher()
}

// autoPunctLocked emits the automatic punctuation once AutoPunctEvery
// tuples have been sent since the last.
func (s *Stream) autoPunctLocked() {
	if s.opts.AutoPunctEvery > 0 && s.sincePunct >= s.opts.AutoPunctEvery && s.hasTs {
		s.sincePunct = 0
		s.punctLocked(s.maxTs)
	}
}

// Punct sends a punctuation promising that no future tuple on this stream
// will carry a timestamp below ets — local punctuation generation, making
// the remote wrapper a first-class bound source.
func (s *Stream) Punct(ets tuple.Time) error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.eos {
		return fmt.Errorf("client: punct on closed stream %q", s.name)
	}
	if err := c.ensureLocked(); err != nil {
		return err
	}
	return s.punctLocked(ets)
}

func (s *Stream) punctLocked(ets tuple.Time) error {
	c := s.c
	if err := s.flushLocked(); err != nil {
		return nil // buffered; punct is dropped with the transport, resend later
	}
	f := wire.Punct{ID: s.id, TS: s.ts, ETS: ets}
	if c.traceOK {
		// Open a propagation trace: session in the high bits keeps IDs
		// unique across the server's sessions, and the send clock lets the
		// server place the network hop on its own time axis.
		c.traceCt++
		f.Trace = c.sess<<32 | c.traceCt&0xffffffff
		f.Clock = c.opts.Clock()
	}
	if err := c.writeLocked(f); err == nil {
		c.stats.PunctSent++
	}
	return nil
}

// flushLocked writes the pending batch as one TUPLES frame. On success the
// tuples return to the pool (Send took ownership); on a transport failure
// the batch is retained for the next epoch.
func (s *Stream) flushLocked() error {
	c := s.c
	if len(s.batch) == 0 {
		return nil
	}
	var f wire.Frame
	// The frame carries the first tuple's sequence number when the server
	// negotiated sequencing (the batch is contiguous: seq..seq+n-1).
	var seq uint64
	if c.seqOK {
		seq = s.batch[0].Seq
	}
	if len(s.batch) == 1 {
		f = wire.Tuple{ID: s.id, T: s.batch[0], Seq: seq}
	} else {
		f = wire.Tuples{ID: s.id, Batch: s.batch, Seq: seq}
	}
	if err := c.writeLocked(f); err != nil {
		return err
	}
	c.stats.BatchesSent++
	c.stats.TuplesSent += uint64(len(s.batch))
	for i, t := range s.batch {
		tuple.Put(t)
		s.batch[i] = nil
	}
	s.batch = s.batch[:0]
	return nil
}

// CloseSend flushes the stream and sends EOS, ending the stream server-side
// once every other binding has also ended. The stream accepts no more sends.
func (s *Stream) CloseSend() error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.eos {
		return nil
	}
	for {
		if err := c.ensureLocked(); err != nil {
			return err
		}
		if s.flushLocked() != nil {
			continue // transport died mid-flush; reconnect and retry
		}
		if c.writeLocked(wire.EOS{ID: s.id}) == nil {
			s.eos = true
			return nil
		}
	}
}

// applyAckSeq adopts the server's dedupe watermark from a BIND_ACK (0 =
// sequencing not in use): the retained batch drops everything the server
// already applied, and the sequence counter jumps forward so new tuples
// never collide with applied sequence numbers. Called with c.mu held.
func (s *Stream) applyAckSeq(w uint64) {
	if w == 0 {
		return
	}
	s.acked = w
	if w > s.seq {
		s.seq = w
	}
	kept := s.batch[:0]
	for _, t := range s.batch {
		if t.Seq != 0 && t.Seq <= w {
			tuple.Put(t)
			continue
		}
		kept = append(kept, t)
	}
	for i := len(kept); i < len(s.batch); i++ {
		s.batch[i] = nil
	}
	s.batch = kept
}

// AckedSeq reports the last dedupe watermark the server sent in a BIND_ACK
// (0 before the first sequenced ack). After a reconnect to a crash-restored
// server this is the replay resume point: the application must re-Send its
// tuples numbered above it that the client no longer retains, and nothing
// at or below it (the server would suppress them anyway).
func (s *Stream) AckedSeq() uint64 {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	return s.acked
}

// Err reports a terminal stream error (e.g. a failed re-bind after
// reconnect).
func (s *Stream) Err() error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	return s.err
}
