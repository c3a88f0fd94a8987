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
	//
	// The pending frame is encoded bytes: body holds the tuple bodies Send
	// encoded, back to back, and ends[i] is the offset where tuple i's ends.
	body       []byte
	ends       []int32
	frame      wire.Encoded // what flushLocked writes them as
	maxTs      tuple.Time
	hasTs      bool
	sincePunct int
	eos        bool
	err        error

	// seq is the last sequence number assigned (Options.Sequenced): tuples
	// are numbered seq+1, seq+2, … as Send buffers them, so the pending
	// frame holds seq-len(ends)+1 … seq. A BIND_ACK watermark floors it so
	// post-recovery sends never collide with sequence numbers the server
	// already applied.
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

// Send hands one tuple to the stream, taking ownership of it: Send encodes
// it into the stream's pending frame and returns it to the tuple pool before
// returning, so the caller's next tuple.Get gets it back. The frame is
// written at once when the link is idle, and otherwise the package comment's
// flush triggers bound its wait. Send blocks while the server's credit
// window is exhausted — the networked form of engine backpressure — and
// while a broken connection reconnects. A transport failure after buffering
// is not an error: the encoded frame is retained and resent on the next
// transport.
func (s *Stream) Send(t *tuple.Tuple) error {
	one := [1]*tuple.Tuple{t}
	return s.SendBatch(one[:])
}

// SendBatch sends a slice of tuples (ownership of the tuples transfers, and
// each goes back to the pool once encoded, as in Send; the slice stays the
// caller's). It takes the connection lock and credits once per chunk, a
// chunk being what fits under the frame cap, before the next automatic
// punctuation and in the free credit window, so a batch larger than the
// window drains through it.
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
		room := c.opts.BatchSize - len(s.ends)
		if every := s.opts.AutoPunctEvery; every > 0 {
			room = min(room, every-s.sincePunct)
		}
		// A frame retained past the cap by a failed write still takes one.
		n, err := c.takeCredits(1, min(max(room, 1), len(ts)))
		if err != nil {
			return err
		}
		wasEmpty := len(s.ends) == 0
		for _, t := range ts[:n] {
			if !s.hasTs || t.Ts > s.maxTs {
				s.maxTs, s.hasTs = t.Ts, true
			}
			s.body = wire.AppendTuple(s.body, t)
			s.ends = append(s.ends, int32(len(s.body)))
			tuple.Put(t)
		}
		if c.opts.Sequenced {
			s.seq += uint64(n)
		}
		s.sincePunct += n
		ts = ts[n:]
		s.queuedLocked(wasEmpty)
		s.autoPunctLocked()
	}
	return nil
}

// queuedLocked applies the sender's flush triggers after tuples joined the
// pending frame: the size cap, and write-through on an idle link. A frame
// that begins to coalesce instead is the flusher's to write.
func (s *Stream) queuedLocked(wasEmpty bool) {
	c := s.c
	if len(s.ends) >= c.opts.BatchSize {
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

// flushLocked writes the pending frame, the tuple bodies Send encoded, as
// one TUPLE or TUPLES frame. The tuples themselves went back to the pool
// when they were encoded. On a transport failure the bytes are retained for
// the next epoch.
func (s *Stream) flushLocked() error {
	c := s.c
	n := len(s.ends)
	if n == 0 {
		return nil
	}
	// A pointer to the stream's frame goes into the Frame interface without
	// an allocation, where a frame value would be boxed on the heap.
	f := &s.frame
	*f = wire.Encoded{ID: s.id, N: n, Body: s.body}
	if c.seqOK {
		// The first tuple's sequence number: the frame is contiguous.
		f.Seq = s.seq - uint64(n) + 1
	}
	if err := c.writeLocked(f); err != nil {
		return err
	}
	c.stats.BatchesSent++
	c.stats.TuplesSent += uint64(n)
	s.body, s.ends = s.body[:0], s.ends[:0]
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
// sequencing not in use): the retained frame drops the prefix the server
// already applied, and the sequence counter jumps forward so new tuples
// never collide with applied sequence numbers. Called with c.mu held.
func (s *Stream) applyAckSeq(w uint64) {
	if w == 0 {
		return
	}
	s.acked = w
	if s.c.opts.Sequenced {
		// The retained tuples are numbered before+1 … s.seq.
		if before := s.seq - uint64(len(s.ends)); w > before {
			s.trimLocked(int(min(w-before, uint64(len(s.ends)))))
		}
	}
	s.seq = max(s.seq, w)
}

// trimLocked drops the pending frame's first k tuples.
func (s *Stream) trimLocked(k int) {
	if k == 0 {
		return
	}
	cut := s.ends[k-1]
	s.body = s.body[:copy(s.body, s.body[cut:])]
	s.ends = s.ends[:copy(s.ends, s.ends[k:])]
	for i := range s.ends {
		s.ends[i] -= cut
	}
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
