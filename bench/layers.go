package main

import (
	"time"

	rt "repro/internal/runtime"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; smoke_test.go holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"paced_latency_p50_us", "us", "lower", 0.25},
	{"sat_throughput_tps", "1/s", "higher", 0.25},
	{"sat_cpu_ns_per_tuple", "ns", "lower", 0.25},
	{"sat_allocs_per_tuple", "count", "lower", 0.15},
	{"sat_bytes_per_tuple", "B", "lower", 0.02},
}

var perLayerMetrics = []metricDef{
	{"box.slowdown_setup", "ratio", "lower", 0},
	{"box.slowdown_paced", "ratio", "lower", 0},
	{"box.slowdown_sat", "ratio", "lower", 0},
	{"driver.gen_late_p50_us", "us", "lower", 0},
	{"driver.gen_late_p99_us", "us", "lower", 0},
	{"driver.gen_ns_per_tuple", "ns", "lower", 0},
	{"cql.compile_us", "us", "lower", 0},
	{"runtime.build_start_us", "us", "lower", 0},
	{"runtime.ingest_ns_per_tuple", "ns", "lower", 0},
	{"runtime.ingest_blocked_share", "ratio", "higher", 0},
	{"runtime.batch_fill_paced", "count", "lower", 0},
	{"runtime.batch_fill_sat", "count", "higher", 0},
	{"runtime.ets_per_ktuple_paced", "count", "lower", 0},
	{"runtime.ets_per_ktuple_sat", "count", "lower", 0},
	{"runtime.demand_per_ktuple", "count", "lower", 0},
	{"runtime.queue_hwm_tuples", "count", "lower", 0},
	{"runtime.late_flagged_per_ktuple", "count", "lower", 0},
	{"runtime.shed_tuples", "count", "lower", 0},
	{"ops.iwp_idle_fraction", "ratio", "lower", 0},
	{"ops.iwp_idle_spells_per_ktuple", "count", "lower", 0},
	{"exec.cpu_ns_per_tuple", "ns", "lower", 0},
	{"exec.allocs_per_tuple", "count", "lower", 0},
	{"window.insert_probe_expire_ns_per_tuple", "ns", "lower", 0},
	{"window.peak_tuples", "count", "lower", 0},
	{"tuple.new_ns_per_tuple", "ns", "lower", 0},
	{"tuple.get_put_ns", "ns", "lower", 0},
	{"buffer.push_pop_ns_per_tuple", "ns", "lower", 0},
	{"tsm.ets_call_ns", "ns", "lower", 0},
	{"client.dial_bind_us", "us", "lower", 0},
	{"client.send_ns_per_tuple", "ns", "lower", 0},
	{"client.batch_wait_p50_us", "us", "lower", 0},
	{"client.tuples_per_frame", "count", "higher", 0},
	{"client.send_blocked_share", "ratio", "higher", 0},
	{"client.credit_stalls", "count", "lower", 0},
	{"wire.encode_ns_per_tuple", "ns", "lower", 0},
	{"wire.decode_ns_per_tuple", "ns", "lower", 0},
	{"wire.bytes_per_tuple", "B", "lower", 0},
	{"server.wire_to_sink_p50_us", "us", "lower", 0},
	{"server.frames_in_per_ktuple", "count", "lower", 0},
	{"server.credits_granted", "count", "higher", 0},
	{"server.demand_sent", "count", "lower", 0},
	{"obs.punct_hop_wait_p50_us", "us", "lower", 0},
	{"obs.punct_hop_proc_p50_us", "us", "lower", 0},
	{"obs.spans_dropped", "count", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"sink.latency_p99_us", "us", "lower", 0},
	{"sink.sat_latency_p50_us", "us", "lower", 0},
}

// driverBoundShare is the blocked share below which the saturated phase
// measured the generator and not the engine.
const driverBoundShare = 0.5

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nodeDelta returns how much the named node's counters moved between two
// snapshots.
func nodeDelta(from, to *rt.Snapshot, name string) (idleUs, spells float64) {
	a, b := from.Node(name), to.Node(name)
	if a == nil || b == nil {
		return 0, 0
	}
	return float64(b.IdleTime - a.IdleTime), float64(b.IdleSpells - a.IdleSpells)
}

// layerMetrics derives every per-layer metric from the traced pass. plain is
// the untraced pass of the same invocation, the base of the trace overhead.
func layerMetrics(cfg runConfig, plain, traced *runResult) (map[string]float64, []string, error) {
	w, tr := cfg.w, cfg.tr
	m := make(map[string]float64, len(perLayerMetrics))
	var flags []string
	horizon := int64(cfg.warm) + int64(cfg.windows)*int64(cfg.window)

	p0, p1, s1 := &traced.marks[0], &traced.marks[1], &traced.marks[2]
	pacedK := float64(p1.fed-p0.fed) / 1000
	satK := float64(s1.fed-p1.fed) / 1000
	pacedWall := float64(p1.at - p0.at)

	// box: what the gauge saw beside the traced pass, whose timings below
	// are as the clock read them
	m["box.slowdown_setup"] = traced.slow.setup
	m["box.slowdown_paced"] = median(present(traced.slow.paced))
	m["box.slowdown_sat"] = median(present(traced.slow.sat))

	// driver
	m["driver.gen_late_p50_us"] = quantileOf(traced.late, 0.5) / 1000
	m["driver.gen_late_p99_us"] = quantileOf(traced.late, 0.99) / 1000
	m["driver.gen_ns_per_tuple"] = probeGen(w, cfg.seed, cfg.probe)

	// set-up, by layer
	m["cql.compile_us"] = median(traced.setup.compile) / 1000
	m["runtime.build_start_us"] = median(traced.setup.build) / 1000
	m["client.dial_bind_us"] = median(traced.setup.connect) / 1000

	// The feeder call is runtime.Ingest(Batch) in process and client.Send
	// over the wire; its time goes to the layer that was called.
	sendNs := ratio(float64(tr.inSend[phasePaced]), pacedK*1000)
	blocked := ratio(float64(tr.inSend[phaseSat]), float64(traced.satWall))
	if w.net {
		m["client.send_ns_per_tuple"], m["client.send_blocked_share"] = sendNs, blocked
	} else {
		m["runtime.ingest_ns_per_tuple"], m["runtime.ingest_blocked_share"] = sendNs, blocked
	}
	if blocked < driverBoundShare {
		flags = append(flags, "driver_bound")
	}

	// runtime counters
	m["runtime.batch_fill_paced"] = ratio(float64(p1.snap.TuplesSent-p0.snap.TuplesSent), float64(p1.snap.BatchesSent-p0.snap.BatchesSent))
	m["runtime.batch_fill_sat"] = ratio(float64(s1.snap.TuplesSent-p1.snap.TuplesSent), float64(s1.snap.BatchesSent-p1.snap.BatchesSent))
	m["runtime.ets_per_ktuple_paced"] = ratio(float64(p1.snap.ETSGenerated-p0.snap.ETSGenerated), pacedK)
	m["runtime.ets_per_ktuple_sat"] = ratio(float64(s1.snap.ETSGenerated-p1.snap.ETSGenerated), satK)
	var demand, hwm float64
	for i := range p1.snap.Nodes {
		demand += float64(p1.snap.Nodes[i].DemandSent - p0.snap.Nodes[i].DemandSent)
	}
	for _, n := range s1.snap.Nodes {
		if float64(n.QueueHWM) > hwm {
			hwm = float64(n.QueueHWM)
		}
	}
	m["runtime.demand_per_ktuple"] = ratio(demand, pacedK)
	m["runtime.queue_hwm_tuples"] = hwm
	m["runtime.late_flagged_per_ktuple"] = ratio(float64(s1.snap.LateTuples), float64(s1.fed)/1000)
	m["runtime.shed_tuples"] = float64(s1.snap.TuplesShed)

	// ops: the IWP operator's idle-waiting over the paced phase
	if w.iwp != "" {
		idleUs, spells := nodeDelta(&p0.snap, &p1.snap, w.iwp)
		m["ops.iwp_idle_fraction"] = ratio(idleUs*1000, pacedWall)
		m["ops.iwp_idle_spells_per_ktuple"] = ratio(spells, pacedK)
	}

	// probes
	cpu, allocs, err := probeExec(traced, cfg.seed, horizon, 2*cfg.probe)
	if err != nil {
		return nil, nil, err
	}
	m["exec.cpu_ns_per_tuple"], m["exec.allocs_per_tuple"] = cpu, allocs
	ns, peak := probeWindow(w, cfg.seed, horizon, cfg.probe)
	m["window.insert_probe_expire_ns_per_tuple"], m["window.peak_tuples"] = ns, float64(peak)
	m["tuple.new_ns_per_tuple"], m["tuple.get_put_ns"] = probeTuple(cfg.probe)
	m["buffer.push_pop_ns_per_tuple"] = probeBuffer(cfg.probe)
	m["tsm.ets_call_ns"] = probeETS(w, cfg.probe)
	m["wire.encode_ns_per_tuple"], m["wire.decode_ns_per_tuple"], m["wire.bytes_per_tuple"] = probeWire(w, cfg.seed, cfg.probe/4)

	// client and server
	if w.net {
		m["client.batch_wait_p50_us"] = tr.wire.wait.quantile(0.5) / 1000
		m["client.tuples_per_frame"] = ratio(float64(p1.net.tuplesSent-p0.net.tuplesSent), float64(p1.net.batchesSent-p0.net.batchesSent))
		m["client.credit_stalls"] = float64(s1.net.creditStalls)
		m["server.wire_to_sink_p50_us"] = tr.wire.toSink.quantile(0.5) / 1000
		m["server.frames_in_per_ktuple"] = ratio(float64(s1.net.framesIn), float64(s1.fed)/1000)
		m["server.credits_granted"] = float64(s1.net.creditsGranted)
		m["server.demand_sent"] = float64(s1.net.demandSent)
	}

	// obs: the runtime's own punctuation spans, hop by hop
	var waits, procs []float64
	for _, tl := range tr.hops {
		if !tl.Complete {
			continue
		}
		for _, h := range tl.Hops {
			if h.WaitUs >= 0 {
				waits = append(waits, float64(h.WaitUs))
			}
			if h.ProcUs >= 0 {
				procs = append(procs, float64(h.ProcUs))
			}
		}
	}
	m["obs.punct_hop_wait_p50_us"] = median(waits)
	m["obs.punct_hop_proc_p50_us"] = median(procs)
	m["obs.spans_dropped"] = float64(tr.spans.Dropped())
	base := plain.e2e["sat_throughput_tps"]
	m["obs.trace_overhead_pct"] = 100 * ratio(base-traced.e2e["sat_throughput_tps"], base)

	// sink
	m["sink.latency_p99_us"] = median(present(traced.rec.windowQuantiles(phasePaced, 0.99)))
	m["sink.sat_latency_p50_us"] = median(present(traced.rec.windowQuantiles(phaseSat, 0.5)))

	for _, d := range perLayerMetrics {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // a layer this workload does not touch
		}
	}
	return m, flags, nil
}

// passConfig sizes one pass from the run length: ten windows per phase for the
// measured pass, 1.4 s each at the default length, and four for each pass of a
// traced run. The gauge's slot between saturated windows is a twenty-fifth of
// a window, 56 ms.
func passConfig(w *workload, seed uint64, seconds float64, traced bool) runConfig {
	window := time.Duration(seconds / 20 * float64(time.Second))
	cfg := runConfig{
		w:       w,
		seed:    seed,
		windows: 10,
		window:  window,
		warm:    window / 2,
		slot:    window / 25,
		setups:  setupBudget,
		probe:   1 << 20,
	}
	if traced {
		// Two passes share the invocation's time, and the per-layer set-up
		// pieces are reported, not gated.
		cfg.windows = 4
		cfg.setups = setupBudget / 4
	}
	return cfg
}
