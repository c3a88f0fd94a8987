package main

import (
	"fmt"
	"net"
	"time"

	streammill "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/tuple"
)

// maxQueueLen is the input-queue bound a streamd user gets with -max-queue.
const maxQueueLen = 4096

// env is one compiled, started plan and, for a net workload, the loopback
// server and the client connections that feed it.
type env struct {
	w    *workload
	rt   *runtime.Engine
	srcs []*ops.Source

	srv   *server.Server
	conns []*client.Conn
	strs  []*client.Stream
}

// setupTimes splits one set-up into its layers, in ns.
type setupTimes struct {
	compile int64 // NewEngine and every Execute
	build   int64 // BuildRuntime and Start
	connect int64 // Listen, Dial and Bind (net workloads)
}

func (s setupTimes) total() int64 { return s.compile + s.build + s.connect }

// instruments are the existing options a traced run sets; the zero value is
// the untraced run.
type instruments struct {
	spans *obs.Collector
	dial  func(addr string) (net.Conn, error)
}

// setup compiles the workload's plan from CQL through the public facade,
// builds and starts the runtime with the options a streamd user gets, and
// connects the clients of a net workload.
func setup(w *workload, clk clock, onRow func(*tuple.Tuple, tuple.Time), ins instruments) (*env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	eng := streammill.NewEngine()
	for _, ddl := range w.ddl {
		if _, err := eng.Execute(ddl, nil); err != nil {
			return nil, st, fmt.Errorf("compile %q: %w", ddl, err)
		}
	}
	if _, err := eng.Execute(w.query, onRow); err != nil {
		return nil, st, fmt.Errorf("compile %q: %w", w.query, err)
	}
	t1 := time.Now()
	st.compile = int64(t1.Sub(t0))

	rt, err := eng.BuildRuntime(runtime.Options{
		OnDemandETS: true,
		MaxQueueLen: maxQueueLen,
		Now:         clk.us,
		Spans:       ins.spans,
	})
	if err != nil {
		return nil, st, fmt.Errorf("build runtime: %w", err)
	}
	e := &env{w: w, rt: rt}
	for _, name := range w.streams {
		src, err := eng.Source(name)
		if err != nil {
			return nil, st, err
		}
		e.srcs = append(e.srcs, src)
	}
	rt.Start()
	t2 := time.Now()
	st.build = int64(t2.Sub(t1))
	if !w.net {
		return e, st, nil
	}

	e.srv, err = server.Listen("127.0.0.1:0", server.Options{
		Backend: server.NewEngineBackend(rt, eng.LookupStream),
		Now:     clk.us,
		Spans:   ins.spans,
	})
	if err != nil {
		e.abort()
		return nil, st, err
	}
	// One connection per stream, as two independent feeds would have.
	for _, name := range w.streams {
		c, err := client.Dial(e.srv.Addr().String(), client.Options{Name: "bench-" + name, Dial: ins.dial})
		if err != nil {
			e.abort()
			return nil, st, fmt.Errorf("dial: %w", err)
		}
		e.conns = append(e.conns, c)
		s, err := c.Bind(name, w.ts, client.StreamOptions{})
		if err != nil {
			e.abort()
			return nil, st, fmt.Errorf("bind %s: %w", name, err)
		}
		e.strs = append(e.strs, s)
	}
	st.connect = int64(time.Since(t2))
	return e, st, nil
}

// send hands one stream's share of an arrival to the engine and gives up
// ownership of the tuples; batch stays the caller's.
func (e *env) send(stream int, batch []*tuple.Tuple) error {
	switch {
	case e.w.net:
		return e.strs[stream].SendBatch(batch)
	case len(batch) == 1:
		e.rt.Ingest(e.srcs[stream], batch[0])
	default:
		e.rt.IngestBatch(e.srcs[stream], batch)
	}
	return nil
}

// drain closes every stream, waits until the graph has run dry and every
// node goroutine has exited, and shuts the network side down.
func (e *env) drain() error {
	var first error
	if e.w.net {
		for _, s := range e.strs {
			if err := s.CloseSend(); err != nil && first == nil {
				first = err
			}
		}
	} else {
		for _, src := range e.srcs {
			e.rt.CloseStream(src)
		}
	}
	if first != nil {
		// An EOS that never left would leave Wait blocked for good.
		e.abort()
		return first
	}
	if err := e.rt.Wait(); err != nil {
		first = err
	}
	e.closeNet()
	return first
}

// abort tears a half-built or wedged env down without draining.
func (e *env) abort() {
	e.rt.Stop()
	e.closeNet()
	e.rt.Wait()
}

func (e *env) closeNet() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// netCounters are the ingress layers' public counters: client.Conn.Stats
// summed over the connections, and the server's sm_net_* registry.
type netCounters struct {
	tuplesSent, batchesSent, creditStalls uint64
	framesIn, creditsGranted, demandSent  uint64
}

func (e *env) netCounters() netCounters {
	var n netCounters
	if e.srv == nil {
		return n
	}
	for _, c := range e.conns {
		st := c.Stats()
		n.tuplesSent += st.TuplesSent
		n.batchesSent += st.BatchesSent
		n.creditStalls += st.CreditStalls
	}
	reg := e.srv.Registry()
	n.framesIn = reg.Counter("sm_net_frames_in_total").Load()
	n.creditsGranted = reg.Counter("sm_net_credits_granted_total").Load()
	n.demandSent = reg.Counter("sm_net_demand_sent_total").Load()
	return n
}
