// Package server is the networked ingestion subsystem: a session-managed
// TCP server that speaks the internal/wire protocol and feeds tuples into a
// stream engine. It is what turns streamd from a process that replays files
// into a network DSMS node.
//
// One connection is one session. A binary session opens with the wire magic
// and a HELLO, then BINDs any number of declared streams and interleaves
// TUPLE/TUPLES/PUNCT frames on them. Three pieces of timestamp management
// from the paper live here rather than in the engine:
//
//   - Skew measurement (§5): every HELLO and HEARTBEAT carries the sender's
//     clock; the session's SkewEstimator turns the offset spread into a
//     measured per-connection skew bound and widens the source's δ with it
//     (ops.Source.RaiseDelta), so on-demand ETS for a remote stream is
//     computed from the link actually in use, not from a declared constant.
//   - Punctuation transport (§3): PUNCT frames from clients become real
//     punctuation tuples in the stream — a remote wrapper can promise
//     bounds exactly like an in-process one.
//   - Flow control as demand: the server grants tuple credits (HELLO_ACK,
//     then DEMAND top-ups as it consumes); when the engine backpressures,
//     the session stops reading and stops granting, so the client's window
//     drains and the pressure reaches the true producer.
//
// A connection that does not start with the magic is closed without being
// served.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// DefaultCredits is the per-session tuple credit window when Options.Credits
// is zero.
const DefaultCredits = 1 << 16

// PlanHandler accepts distributed-execution control frames (PLAN_DEPLOY /
// PLAN_START / PLAN_STOP). internal/dist.Worker implements it; a server
// without one rejects plan frames with a PLAN_ACK error instead of killing
// the session, so a coordinator probing a non-worker gets a clean
// diagnostic. Handlers run on the session's reader goroutine — a deploy may
// compile a query graph, and blocking that one connection is acceptable
// (control connections carry no data).
type PlanHandler interface {
	// PlanDeploy decodes and instantiates a plan fragment; the fragment must
	// be ready to accept link binds when it returns.
	PlanDeploy(plan uint64, spec []byte) error
	// PlanStart begins execution of a deployed fragment (egress links dial
	// out from here).
	PlanStart(plan uint64) error
	// PlanStop tears a deployed fragment down.
	PlanStop(plan uint64) error
}

// Options configures a Server.
type Options struct {
	// Backend resolves stream bindings (required).
	Backend Backend
	// Plans, when non-nil, accepts distributed-execution control frames on
	// any session (a worker streamd). Nil rejects them per frame.
	Plans PlanHandler
	// Metrics receives the server's sm_net_* instruments; nil gives the
	// server a private registry (reachable via Server.Registry).
	Metrics *metrics.Registry
	// Trace, when non-nil, receives EvNetSessionOpen/Close/Bind/Demand/Skew
	// events.
	Trace *metrics.Tracer
	// Spans, when non-nil, enables punctuation-propagation tracing across
	// the wire: sessions grant wire.CapTrace, PUNCT frames may carry trace
	// context, and the network hop (client send → server receive) is
	// recorded into the collector with the client's send instant mapped
	// onto the server clock by the session's skew estimate. Share the
	// collector (and Options.Now) with the backing engine so the wire hop
	// and the in-graph hops land on one timeline.
	Spans *obs.Collector
	// Credits is the tuple credit window granted per session (default
	// DefaultCredits). The server grants the full window at HELLO_ACK and
	// tops it up with DEMAND frames once half is consumed.
	Credits uint32
	// Now supplies the server clock in µs (skew sampling, trace stamps);
	// defaults to wall time since server start. Use the engine's clock so
	// trace timelines line up.
	Now func() tuple.Time
	// HeartbeatEvery asks clients (via HELLO_ACK flags — advisory) and the
	// drain logic for a heartbeat cadence; also the read-deadline grace
	// applied during Drain. Default 1s.
	HeartbeatEvery time.Duration
	// InitialSeq seeds each stream's ingest-sequence dedupe watermark (see
	// wire.CapSeq) when the stream first opens — after a checkpoint restore,
	// the restored source sequence numbers go here, so reconnecting clients
	// that resend their retained batches have everything at or below the
	// snapshot cut suppressed instead of double-applied.
	InitialSeq map[string]uint64
}

// Server accepts and runs ingest sessions.
type Server struct {
	ln      net.Listener
	opts    Options
	now     func() tuple.Time
	credits uint32

	reg   *metrics.Registry
	trace *metrics.Tracer
	spans *obs.Collector
	m     serverMetrics

	mu       sync.Mutex
	sessions map[uint64]*session
	streams  map[string]*streamState
	nextSID  uint64

	draining atomic.Bool
	closed   atomic.Bool
	wg       sync.WaitGroup
}

// streamState is the server-wide registry entry for one bound stream.
// Sessions share it: the first bind opens the backend sink, later binds
// reference it, and the sink closes (EOS downstream) only when the last
// reference is gone and some session asked for EOS.
type streamState struct {
	name string
	sch  *tuple.Schema
	sink StreamSink
	src  *ops.Source

	refs      int
	eosWanted bool
	closed    bool

	// ingested is the stream's sequence dedupe watermark: the highest
	// client-assigned sequence number applied so far (wire.CapSeq). Seeded
	// from Options.InitialSeq at open; sessions advance it as they admit
	// sequenced frames and report it in BIND_ACK so reconnecting producers
	// trim their resend batches.
	ingested atomic.Uint64

	tuples *metrics.Counter64
	skewUs *metrics.Gauge64
}

// admitSeq checks the sequence range [seq, seq+n) against the stream's
// dedupe watermark and advances the watermark over it. It returns how many
// leading tuples of the range are duplicates (already applied under an
// earlier session or before a crash) and must be dropped; the remaining
// suffix is the caller's to ingest. Dedupe assumes one sequenced producer
// per stream — concurrent sequenced writers would interleave their counters.
func (st *streamState) admitSeq(seq uint64, n int) int {
	last := seq + uint64(n) - 1
	for {
		cur := st.ingested.Load()
		if last <= cur {
			return n // whole range already applied
		}
		if st.ingested.CompareAndSwap(cur, last) {
			if seq > cur {
				return 0
			}
			return int(cur - seq + 1)
		}
	}
}

type serverMetrics struct {
	sessions     *metrics.Counter64
	sessionsLive *metrics.Gauge64
	framesIn     *metrics.Counter64
	framesOut    *metrics.Counter64
	bytesIn      *metrics.Counter64
	bytesOut     *metrics.Counter64
	tuplesIn     *metrics.Counter64
	tuplesDedup  *metrics.Counter64
	punctIn      *metrics.Counter64
	punctIgnored *metrics.Counter64
	heartbeats   *metrics.Counter64
	binds        *metrics.Counter64
	eos          *metrics.Counter64
	demandSent   *metrics.Counter64
	credits      *metrics.Counter64
	errors       *metrics.Counter64
	planOps      *metrics.Counter64
	planErrors   *metrics.Counter64
}

// Listen binds addr and starts accepting sessions.
func Listen(addr string, opts Options) (*Server, error) {
	if opts.Backend == nil {
		return nil, errors.New("server: Options.Backend is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:       ln,
		opts:     opts,
		trace:    opts.Trace,
		spans:    opts.Spans,
		credits:  opts.Credits,
		sessions: make(map[uint64]*session),
		streams:  make(map[string]*streamState),
	}
	if s.credits == 0 {
		s.credits = DefaultCredits
	}
	if opts.Now != nil {
		s.now = opts.Now
	} else {
		start := time.Now()
		s.now = func() tuple.Time { return tuple.FromDuration(time.Since(start)) }
	}
	if s.opts.HeartbeatEvery <= 0 {
		s.opts.HeartbeatEvery = time.Second
	}
	s.reg = opts.Metrics
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	m := &s.m
	m.sessions = s.reg.Counter("sm_net_sessions_total")
	m.sessionsLive = s.reg.Gauge("sm_net_sessions_active")
	m.framesIn = s.reg.Counter("sm_net_frames_in_total")
	m.framesOut = s.reg.Counter("sm_net_frames_out_total")
	m.bytesIn = s.reg.Counter("sm_net_bytes_in_total")
	m.bytesOut = s.reg.Counter("sm_net_bytes_out_total")
	m.tuplesIn = s.reg.Counter("sm_net_tuples_in_total")
	m.tuplesDedup = s.reg.Counter("sm_net_tuples_deduped_total")
	m.punctIn = s.reg.Counter("sm_net_punct_in_total")
	m.punctIgnored = s.reg.Counter("sm_net_punct_ignored_total")
	m.heartbeats = s.reg.Counter("sm_net_heartbeats_total")
	m.binds = s.reg.Counter("sm_net_binds_total")
	m.eos = s.reg.Counter("sm_net_eos_total")
	m.demandSent = s.reg.Counter("sm_net_demand_sent_total")
	m.credits = s.reg.Counter("sm_net_credits_granted_total")
	m.errors = s.reg.Counter("sm_net_errors_total")
	m.planOps = s.reg.Counter("sm_net_plan_ops_total")
	m.planErrors = s.reg.Counter("sm_net_plan_errors_total")
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Registry exposes the registry the server's instruments live in.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Sessions reports the number of live sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.nextSID++
		sid := s.nextSID
		sess := newSession(s, sid, conn)
		s.sessions[sid] = sess
		s.mu.Unlock()
		s.m.sessions.Inc()
		s.m.sessionsLive.Add(1)
		if s.trace != nil {
			s.trace.Emit(metrics.EvNetSessionOpen, "server", s.now(), int64(sid))
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sid)
			s.mu.Unlock()
			s.m.sessionsLive.Add(-1)
			if s.trace != nil {
				s.trace.Emit(metrics.EvNetSessionClose, "server", s.now(), int64(sid))
			}
		}()
	}
}

// openStream resolves name through the backend, or references the existing
// server-wide state. Called from session goroutines.
func (s *Server) openStream(name string) (*streamState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.streams[name]; ok {
		if st.closed {
			return nil, fmt.Errorf("server: stream %q already closed", name)
		}
		st.refs++
		return st, nil
	}
	sch, sink, err := s.opts.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	st := &streamState{
		name:   name,
		sch:    sch,
		sink:   sink,
		src:    sink.Source(),
		refs:   1,
		tuples: s.reg.Counter(fmt.Sprintf("sm_net_stream_tuples_total{stream=%s}", name)),
		skewUs: s.reg.Gauge(fmt.Sprintf("sm_net_skew_delta_us{stream=%s}", name)),
	}
	st.ingested.Store(s.opts.InitialSeq[name])
	if st.src != nil {
		st.skewUs.Set(int64(st.src.Delta()))
	}
	s.streams[name] = st
	return st, nil
}

// releaseStream drops one reference. eos records that the releasing session
// sent an explicit EOS for the stream; the sink closes when the last
// reference goes away and at least one session wanted EOS — a session that
// merely disconnects leaves the stream open for the engine's liveness
// watchdog to reason about.
func (s *Server) releaseStream(st *streamState, eos bool) {
	var closeSink bool
	s.mu.Lock()
	st.refs--
	if eos {
		st.eosWanted = true
	}
	if st.refs <= 0 && st.eosWanted && !st.closed {
		st.closed = true
		closeSink = true
	}
	s.mu.Unlock()
	if closeSink {
		s.m.eos.Inc()
		st.sink.Close()
	}
}

// Drain performs a graceful network shutdown: stop accepting, tell every
// live session the server is draining (ERROR/Draining), give them grace to
// finish, then close every still-open stream so the engine sees EOS — the
// final, maximal ETS — and can drain its graph. It returns the number of
// sessions that had to be cut off at the deadline.
func (s *Server) Drain(grace time.Duration) int {
	if !s.draining.CompareAndSwap(false, true) {
		return 0
	}
	s.ln.Close()
	if grace <= 0 {
		grace = s.opts.HeartbeatEvery
	}
	deadline := time.Now().Add(grace)
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, sess := range live {
		sess.beginDrain(deadline)
	}
	// Sessions exit on their own (client EOS/close) or at the read deadline.
	cut := 0
	for _, sess := range live {
		if !sess.waitUntil(deadline) {
			sess.conn.Close()
			cut++
			sess.waitUntil(deadline.Add(grace))
		}
	}
	// Whatever streams are still open, close now: drain is a commitment to
	// shut down, and EOS is the one bound that lets downstream finish.
	s.mu.Lock()
	var toClose []*streamState
	for _, st := range s.streams {
		if !st.closed {
			st.closed = true
			toClose = append(toClose, st)
		}
	}
	s.mu.Unlock()
	for _, st := range toClose {
		s.m.eos.Inc()
		st.sink.Close()
	}
	return cut
}

// Close stops the server immediately: the listener closes, every session's
// connection is cut, and Close blocks until the handlers return. Streams are
// not EOS'd — use Drain first for a graceful stop.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.ln.Close()
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
