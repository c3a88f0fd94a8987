// Command streamd runs a continuous CQL query over CSV stream traces and
// writes the result stream as CSV to stdout. Traces carry a microsecond
// timestamp in their first column (as produced by wlgen); tuples are
// replayed into the engine in global timestamp order, driving the virtual
// clock, with on-demand ETS keeping multi-stream operators live.
//
// Usage:
//
//	streamd \
//	  -ddl 'CREATE STREAM fast (v int); CREATE STREAM slow (v int)' \
//	  -q   'SELECT * FROM fast UNION slow' \
//	  -in  fast=fast.csv -in slow=slow.csv
//
// Observability: -metrics ADDR serves the live registry over HTTP
// (/metrics Prometheus text, /vars JSON, /trace recent events); -trace
// records engine trace events and dumps the tail to stderr at exit; -stats
// prints the full registry snapshot (name value lines) to stderr; -linger
// keeps the process (and the endpoint) alive after the replay finishes so
// scrapers can collect final values.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/wrappers"
)

type input struct {
	stream string
	path   string
}

type options struct {
	noETS   bool
	stats   bool
	trace   bool
	metrics string
	linger  time.Duration
	chaos   string

	listen     string
	drainGrace time.Duration
	srcTimeout time.Duration
	adaptive   bool
	pprof      bool
	spanLog    string

	ckptDir      string
	ckptInterval time.Duration
	ckptKeep     int
	restore      bool
	maxQueue     int

	worker      string
	coordinator string
	distShards  int
	linkDelta   time.Duration
}

func main() {
	ddl := flag.String("ddl", "", "semicolon-separated CREATE STREAM statements")
	q := flag.String("q", "", "SELECT query to run")
	var opts options
	flag.BoolVar(&opts.noETS, "no-ets", false, "disable on-demand ETS (scenario A semantics)")
	flag.BoolVar(&opts.stats, "stats", false, "print the metrics registry snapshot to stderr")
	flag.BoolVar(&opts.trace, "trace", false, "record engine trace events; dump the tail to stderr at exit")
	flag.StringVar(&opts.metrics, "metrics", "", "serve live metrics over HTTP on this address (e.g. 127.0.0.1:9151, :0 for ephemeral)")
	flag.DurationVar(&opts.linger, "linger", 0, "keep running this long after the replay ends (lets scrapers collect)")
	flag.StringVar(&opts.chaos, "chaos", "", "fault spec applied at replay ingestion — drop=P and skew=P:MAX faults (see internal/fault.ParseSpec)")
	flag.StringVar(&opts.listen, "listen", "", "network mode: serve the wire-protocol ingest server on this address instead of replaying -in traces (e.g. 127.0.0.1:7433, :0 for ephemeral)")
	flag.DurationVar(&opts.drainGrace, "drain-grace", 2*time.Second, "network mode: how long SIGINT lets sessions finish before their connections are cut")
	flag.DurationVar(&opts.srcTimeout, "source-timeout", 0, "network mode: arm the source-liveness watchdog — a silent source has ETS forced after this long (0 disables)")
	flag.BoolVar(&opts.adaptive, "adaptive", false, "network mode: attach the self-tuning controller (batch sizes and shard tables retuned at punctuation boundaries; watch sm_adapt_* in /vars)")
	flag.BoolVar(&opts.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the -metrics address")
	flag.StringVar(&opts.spanLog, "span-log", "", "network mode: dump the retained punctuation spans as JSONL to this file at shutdown")
	flag.StringVar(&opts.ckptDir, "ckpt-dir", "", "network mode: checkpoint operator state to this directory on -ckpt-interval (punctuation-aligned barriers)")
	flag.DurationVar(&opts.ckptInterval, "ckpt-interval", 10*time.Second, "network mode: checkpoint cadence for -ckpt-dir")
	flag.IntVar(&opts.ckptKeep, "ckpt-keep", 3, "network mode: complete checkpoints to retain in -ckpt-dir")
	flag.BoolVar(&opts.restore, "restore", false, "network mode: restore operator state from the latest checkpoint in -ckpt-dir before serving; sequenced clients resume at the reported watermark")
	flag.IntVar(&opts.maxQueue, "max-queue", -1, "network mode: bound each operator input queue to this many tuples with backpressure (0 = unbounded; defaults to 4096 when -ckpt-dir is set, since a checkpoint barrier must drain the in-flight data ahead of it)")
	flag.StringVar(&opts.worker, "worker", "", "distributed mode: run a plan-execution worker serving the wire protocol on this address; fragments arrive from a remote coordinator (no -ddl/-q needed)")
	flag.StringVar(&opts.coordinator, "coordinator", "", "distributed mode: comma-separated worker addresses; cut the query across them, serve feeds on -listen, and collect results locally")
	flag.IntVar(&opts.distShards, "dist-shards", 0, "distributed mode: partition factor applied before the cut (0 = number of workers)")
	flag.DurationVar(&opts.linkDelta, "link-delta", 500*time.Millisecond, "distributed mode: skew bound δ declared for network links. Links do not carry demand yet, so a union behind a quiet link waits about δ for each bound; δ is also the watchdog's forced-ETS bound on a stalled link")
	var ins []input
	flag.Func("in", "stream=file CSV trace binding (repeatable)", func(v string) error {
		parts := strings.SplitN(v, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("want stream=file, got %q", v)
		}
		ins = append(ins, input{stream: parts[0], path: parts[1]})
		return nil
	})
	flag.Parse()
	if opts.worker != "" {
		if err := serveWorker(opts); err != nil {
			fmt.Fprintln(os.Stderr, "streamd:", err)
			os.Exit(1)
		}
		return
	}
	if opts.coordinator != "" && (*ddl == "" || *q == "" || opts.listen == "") {
		fmt.Fprintln(os.Stderr, "streamd: -coordinator needs -ddl, -q and -listen")
		os.Exit(2)
	}
	if opts.coordinator == "" && (*ddl == "" || *q == "" || (len(ins) == 0 && opts.listen == "")) {
		flag.Usage()
		os.Exit(2)
	}
	if opts.maxQueue < 0 {
		// A barrier rides the arcs FIFO, so checkpoint latency is bounded by
		// the in-flight data ahead of it. Unbounded queues under overload make
		// that unbounded — checkpointing defaults to backpressure-bounded
		// queues unless -max-queue says otherwise.
		if opts.ckptDir != "" {
			opts.maxQueue = 4096
			fmt.Fprintln(os.Stderr, "streamd: -ckpt-dir set; bounding input queues at 4096 tuples (override with -max-queue)")
		} else {
			opts.maxQueue = 0
		}
	}
	var err error
	switch {
	case opts.coordinator != "":
		err = serveCoordinator(*ddl, *q, opts)
	case opts.listen != "":
		err = serve(*ddl, *q, opts)
	default:
		err = run(*ddl, *q, ins, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamd:", err)
		os.Exit(1)
	}
}

// serve runs the continuous query against live network ingest: the
// concurrent runtime executes the graph while the session server accepts
// wire-protocol connections (legacy text mode stays off: with several
// declared streams there is no single stream a raw connection could mean)
// and feeds tuples, punctuation, and measured clock skew into the sources. SIGINT drains gracefully: the listener closes,
// in-flight sessions get drainGrace to finish, every stream is closed with
// a final ETS, and the engine runs to quiescence before results flush.
func serve(ddl, q string, opts options) error {
	e := core.NewEngine()
	if _, err := e.ExecuteScript(ddl, nil); err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	resultsC := reg.Counter("sm_results_total")
	outLat := reg.Reservoir("sm_output_latency_us", 8192)
	var out *wrappers.CSVWriter
	var results uint64
	query, err := e.Execute(q, func(t *tuple.Tuple, now tuple.Time) {
		if out == nil {
			return
		}
		results++
		resultsC.Inc()
		if d := now - t.Ts; d >= 0 {
			outLat.Observe(int64(d))
		}
		if err := out.Write(t); err != nil {
			fmt.Fprintln(os.Stderr, "streamd: write:", err)
		}
	})
	if err != nil {
		return err
	}
	out = wrappers.NewCSVWriter(os.Stdout, query.Out, wrappers.CSVOptions{TsColumn: 0, Header: true})

	var tr *metrics.Tracer
	if opts.trace {
		tr = metrics.NewTracer(4096)
	}
	metrics.InstrumentTracer(reg, tr)
	// One clock for the engine, the session server, and the span collector:
	// every span phase — network hop included — lands on a single µs axis,
	// so per-hop latencies subtract cleanly.
	start := time.Now()
	clock := func() tuple.Time { return tuple.Time(time.Since(start).Microseconds()) }
	spans := obs.New(obs.DefaultRingSize)
	spans.SetClock(func() int64 { return int64(clock()) })
	spans.Instrument(reg)
	re, err := e.BuildRuntime(runtime.Options{
		OnDemandETS:   !opts.noETS,
		Metrics:       reg,
		Trace:         tr,
		SourceTimeout: opts.srcTimeout,
		Now:           clock,
		Spans:         spans,
		MaxQueueLen:   opts.maxQueue,
	})
	if err != nil {
		return err
	}

	// The observability endpoint comes up before any restore work so the
	// /readyz probe can honestly answer "not yet" while state is loading.
	rdy := &readiness{restoring: opts.restore}
	if opts.metrics != "" {
		ln, err := serveObs(opts, reg, tr, spans, rdy.check)
		if err != nil {
			return err
		}
		defer ln.Close()
	}

	// Checkpointing: a store at -ckpt-dir, optionally restored from before
	// the coordinator starts cutting new snapshots. The restored sources'
	// sequence counters seed the server's dedupe watermarks, so sequenced
	// clients that resend their retained batches are suppressed below the cut
	// and learn the replay resume point from BIND_ACK.
	var coord *ckpt.Coordinator
	var initSeq map[string]uint64
	if opts.restore && opts.ckptDir == "" {
		return fmt.Errorf("-restore requires -ckpt-dir")
	}
	if opts.ckptDir != "" {
		st, err := ckpt.NewStore(opts.ckptDir)
		if err != nil {
			return err
		}
		if opts.restore {
			snap, err := st.Latest()
			if err != nil {
				return err
			}
			if snap == nil {
				fmt.Fprintf(os.Stderr, "streamd: no checkpoint in %s; cold start\n", opts.ckptDir)
			} else {
				if err := re.Restore(snap); err != nil {
					return err
				}
				initSeq = make(map[string]uint64)
				for _, name := range e.Catalog().Names() {
					if _, src, err := e.LookupStream(name); err == nil {
						if w := src.Seq(); w > 0 {
							initSeq[name] = w
						}
					}
				}
				fmt.Fprintf(os.Stderr, "streamd: restored checkpoint %d (%d segments) from %s\n",
					snap.ID, len(snap.Segments), opts.ckptDir)
			}
		}
		coord, err = ckpt.NewCoordinator(re, st, ckpt.Options{
			Interval: opts.ckptInterval,
			Keep:     opts.ckptKeep,
			OnError: func(id uint64, err error) {
				fmt.Fprintf(os.Stderr, "streamd: checkpoint %d: %v\n", id, err)
			},
		})
		if err != nil {
			return err
		}
	}

	var ctl *adapt.Controller
	if opts.adaptive {
		ctl = adapt.New(re, nil)
	}
	re.Start()
	rdy.serving(re.Snapshot)
	if ctl != nil {
		ctl.Start()
	}
	if coord != nil {
		coord.Run()
	}
	srv, err := server.Listen(opts.listen, server.Options{
		Backend:    server.NewEngineBackend(re, e.LookupStream),
		Metrics:    reg,
		Trace:      tr,
		Now:        clock,
		Spans:      spans,
		InitialSeq: initSeq,
	})
	if err != nil {
		re.Stop()
		re.Wait()
		return err
	}
	fmt.Fprintf(os.Stderr, "streamd: ingest listening on %s\n", srv.Addr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "streamd: draining (interrupt again to abort)")
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "streamd: aborting")
		srv.Close()
		re.Stop()
	}()
	if cut := srv.Drain(opts.drainGrace); cut > 0 {
		fmt.Fprintf(os.Stderr, "streamd: drain: cut %d straggling session(s)\n", cut)
	}
	// Drain closed every stream a client had opened; close the rest too so
	// never-bound sources also EOS and the whole graph can run dry.
	for _, name := range e.Catalog().Names() {
		if _, src, err := e.LookupStream(name); err == nil {
			re.CloseStream(src)
		}
	}
	if coord != nil {
		// Stop checkpointing only now: every stream's EOS reaches any cut,
		// so an attempt in flight ends at once rather than waiting out its
		// timeout for a quiet source.
		coord.Stop()
		fmt.Fprintf(os.Stderr, "streamd: checkpoints: %d complete, %d failed\n",
			coord.Completed(), coord.Failed())
	}
	done := make(chan error, 1)
	go func() { done <- re.Wait() }()
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(opts.drainGrace + 5*time.Second):
		fmt.Fprintln(os.Stderr, "streamd: graph drain timed out; stopping")
		re.Stop()
		runErr = <-done
	}
	srv.Close()
	if ctl != nil {
		ctl.Stop()
		fmt.Fprintf(os.Stderr, "streamd: adaptive: %d retunes issued\n", ctl.Retunes())
	}
	if err := out.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streamd: %d results\n", results)
	if opts.stats {
		if err := reg.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if tr != nil {
		fmt.Fprintf(os.Stderr, "streamd: trace: %d events recorded\n", tr.Total())
		if err := tr.WriteText(os.Stderr, 64); err != nil {
			return err
		}
	}
	if opts.spanLog != "" {
		f, err := os.Create(opts.spanLog)
		if err != nil {
			return err
		}
		if err := spans.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "streamd: spans: %d timelines (%d events, %d dropped) -> %s\n",
			spans.Traces(), spans.Total(), spans.Dropped(), opts.spanLog)
	}
	return runErr
}

// serveObs starts the observability HTTP endpoint: the metrics handler
// (/metrics, /vars, /trace) plus /spans, liveness and readiness probes,
// and — behind -pprof — the net/http/pprof profile handlers.
func serveObs(opts options, reg *metrics.Registry, tr *metrics.Tracer, spans *obs.Collector, ready func() (bool, string)) (net.Listener, error) {
	ln, err := net.Listen("tcp", opts.metrics)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", metrics.Handler(reg, tr))
	mux.Handle("/spans", obs.Handler(spans))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if ready == nil {
			fmt.Fprintln(w, "ok")
			return
		}
		if ok, why := ready(); !ok {
			http.Error(w, why, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if opts.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	fmt.Fprintf(os.Stderr, "streamd: metrics listening on http://%s/metrics\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil && !strings.Contains(err.Error(), "use of closed") {
			fmt.Fprintln(os.Stderr, "streamd: metrics server:", err)
		}
	}()
	return ln, nil
}

// readiness implements the /readyz probe over engine snapshots: not ready
// while a checkpoint restore is still loading state (the probe comes up
// before the restore so orchestrators never route to a half-restored
// process), while any source is watchdog-dead, or while tuples keep arriving
// but no watermark has advanced for stallAfter — the timestamp plane is
// wedged even though the data plane looks busy.
type readiness struct {
	mu        sync.Mutex
	restoring bool
	snap      func() runtime.Snapshot

	started bool
	wmSum   int64
	tuples  uint64
	lastOK  time.Time
}

const stallAfter = 15 * time.Second

// serving marks the restore finished and installs the live snapshot source.
func (r *readiness) serving(snap func() runtime.Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restoring, r.snap = false, snap
}

func (r *readiness) check() (bool, string) {
	r.mu.Lock()
	restoring, snapFn := r.restoring, r.snap
	r.mu.Unlock()
	if restoring {
		return false, "restoring from checkpoint"
	}
	if snapFn == nil {
		return false, "engine not started"
	}
	snap := snapFn()
	var wmSum int64
	var tuples uint64
	for _, ns := range snap.Nodes {
		if ns.Dead {
			return false, fmt.Sprintf("source %s dead (watchdog)", ns.Node)
		}
		if ns.Watermark > tuple.MinTime {
			wmSum += int64(ns.Watermark)
		}
		tuples += ns.TuplesIn
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	// Advancing watermarks — or a quiet data plane, which owes no advance —
	// both count as healthy.
	if !r.started || wmSum > r.wmSum || tuples == r.tuples {
		r.started, r.lastOK = true, now
	}
	r.wmSum, r.tuples = wmSum, tuples
	if now.Sub(r.lastOK) > stallAfter {
		return false, fmt.Sprintf("watermarks stalled for %v under live ingest", now.Sub(r.lastOK).Round(time.Second))
	}
	return true, ""
}

func run(ddl, q string, ins []input, opts options) error {
	e := core.NewEngine()
	if _, err := e.ExecuteScript(ddl, nil); err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	resultsC := reg.Counter("sm_results_total")
	outLat := reg.Reservoir("sm_output_latency_us", 8192)
	var out *wrappers.CSVWriter
	var results uint64
	query, err := e.Execute(q, func(t *tuple.Tuple, now tuple.Time) {
		if out == nil {
			return
		}
		results++
		resultsC.Inc()
		if d := now - t.Ts; d >= 0 {
			outLat.Observe(int64(d))
		}
		if err := out.Write(t); err != nil {
			fmt.Fprintln(os.Stderr, "streamd: write:", err)
		}
	})
	if err != nil {
		return err
	}
	out = wrappers.NewCSVWriter(os.Stdout, query.Out, wrappers.CSVOptions{TsColumn: 0, Header: true})

	var inj *fault.Injector
	if opts.chaos != "" {
		cfg, err := fault.ParseSpec(opts.chaos)
		if err != nil {
			return err
		}
		inj = fault.New(cfg)
	}

	// Load every trace.
	type arrival struct {
		stream string
		src    *ops.Source
		t      *tuple.Tuple
	}
	var arrivals []arrival
	for _, in := range ins {
		src, err := e.Source(in.stream)
		if err != nil {
			return err
		}
		sch, err := e.Catalog().Schema(in.stream)
		if err != nil {
			return err
		}
		f, err := os.Open(in.path)
		if err != nil {
			return err
		}
		tuples, err := wrappers.ReadAllCSV(f, sch, wrappers.CSVOptions{TsColumn: 0, Header: true})
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", in.path, err)
		}
		for _, t := range tuples {
			arrivals = append(arrivals, arrival{stream: in.stream, src: src, t: t})
		}
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].t.Ts < arrivals[j].t.Ts })

	policy := core.OnDemandETS
	if opts.noETS {
		policy = core.NoETS
	}
	clock := tuple.Time(0)
	ex, err := e.Build(policy, func() tuple.Time { return clock })
	if err != nil {
		return err
	}
	ex.InstrumentInto(reg)
	var tr *metrics.Tracer
	if opts.trace {
		tr = metrics.NewTracer(4096)
		ex.SetTracer(tr)
	}
	if opts.metrics != "" {
		// Replay mode has no span collector or readiness probe: /spans
		// answers 404 and /readyz is unconditionally ok.
		ln, err := serveObs(opts, reg, tr, nil, nil)
		if err != nil {
			return err
		}
		defer ln.Close()
	}

	// Replay in timestamp order: each arrival advances the clock, then the
	// engine runs to quiescence (generating ETS on demand). Under -chaos,
	// drops lose the tuple before it reaches the source (a lossy feed) and
	// skew perturbs the application timestamp while the arrival still
	// drives the clock (a source clock drifting against the DSMS clock).
	// SIGINT drains gracefully: the replay stops feeding, every stream
	// closes so blocked windows flush, and buffered results reach stdout —
	// a truncated trace, never a truncated output file.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	fed := 0
replay:
	for _, a := range arrivals {
		select {
		case <-sig:
			fmt.Fprintf(os.Stderr, "streamd: interrupted after %d/%d arrivals; draining\n",
				fed, len(arrivals))
			break replay
		default:
		}
		if a.t.Ts > clock {
			clock = a.t.Ts
		}
		fed++
		if inj.DropTuple(a.stream) {
			continue
		}
		a.t.Ts = inj.SkewTs(a.t.Ts)
		a.src.Ingest(a.t, clock)
		ex.Run(1 << 20)
	}
	// Close every stream so windows and aggregates flush.
	for _, name := range e.Catalog().Names() {
		if src, err := e.Source(name); err == nil {
			src.Offer(tuple.EOS())
		}
	}
	ex.Run(1 << 20)
	if err := out.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streamd: %d input tuples, %d results, %d steps\n",
		fed, results, ex.Steps())
	if inj != nil {
		st := inj.Stats()
		fmt.Fprintf(os.Stderr, "streamd: chaos: spec %q, %d dropped, %d skewed\n",
			opts.chaos, st.Drops, st.Skews)
	}
	if opts.stats {
		// The registry snapshot is the single source of stats: one
		// `name value` line per metric (see README).
		if err := reg.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if tr != nil {
		fmt.Fprintf(os.Stderr, "streamd: trace: %d events recorded\n", tr.Total())
		if err := tr.WriteText(os.Stderr, 64); err != nil {
			return err
		}
	}
	if opts.linger > 0 {
		time.Sleep(opts.linger)
	}
	return nil
}
