package main

import "repro/internal/tuple"

// workload is one plan plus the traffic that drives it. Every stream has the
// schema (k int, x int, due int): k is the key, x a random payload, and due
// the tuple's due time in harness-clock ns, which the sink reads back to time
// the result.
type workload struct {
	name string
	why  string
	// ddl and query are compiled through the public facade, in this order.
	ddl   []string
	query string
	// streams lists the declared streams; a feeder addresses them by index.
	streams []string
	ts      tuple.TSKind
	// arrivalsPerSec is the paced rate in arrivals; one arrival carries
	// burst tuples for each stream it feeds.
	arrivalsPerSec float64
	burst          int
	// slowEvery > 0 sends arrival i to stream 1 when i%slowEvery ==
	// slowEvery-1 and to stream 0 otherwise; 0 feeds every stream.
	slowEvery int64
	// stepUs is the saturated phase's external-timestamp step per tuple.
	stepUs int64
	// span is the join window in µs (join plans only).
	span int64
	// net feeds through client → wire → server over loopback.
	net bool
	// latencyWaits says that the paced latency is a wait set by the paced
	// rate and not work a faster box does sooner, so it is reported as
	// measured and not at the quiet box's speed (gauge.go). Over the wire the
	// median result waits 25 ms for its 256-tuple frame to fill and is
	// processed in 0.2 ms; it repeats within 1 % as measured.
	latencyWaits bool
	// iwp names the idle-waiting-prone operator in the plan, if any.
	iwp string
	// plan selects the reference.
	plan planKind
}

type planKind int

const (
	planUnion planKind = iota
	planJoin
	planPipeline
)

// tuplesPerArrival is the number of input tuples one arrival feeds.
func (w *workload) tuplesPerArrival() int {
	if w.slowEvery > 0 {
		return w.burst
	}
	return w.burst * len(w.streams)
}

var unionDDL = []string{
	`CREATE STREAM fast (k INT, x INT, due INT) TIMESTAMP INTERNAL`,
	`CREATE STREAM slow (k INT, x INT, due INT) TIMESTAMP INTERNAL`,
}

var workloads = []*workload{
	{
		name:           "union_sparse",
		why:            "paper Fig. 7/8 on the live runtime: 999:1 union, so demand signalling, ETS generation and union TSM logic do most of the work",
		ddl:            unionDDL,
		query:          `SELECT * FROM fast UNION slow`,
		streams:        []string{"fast", "slow"},
		ts:             tuple.Internal,
		arrivalsPerSec: 5000,
		burst:          1,
		slowEvery:      1000,
		iwp:            "union",
		plan:           planUnion,
	},
	{
		name:           "net_union",
		why:            "the union_sparse plan and schedule fed through client, wire and server over loopback, so the difference is the ingress layers' cost",
		ddl:            unionDDL,
		query:          `SELECT * FROM fast UNION slow`,
		streams:        []string{"fast", "slow"},
		ts:             tuple.Internal,
		arrivalsPerSec: 5000,
		burst:          1,
		slowEvery:      1000,
		net:            true,
		latencyWaits:   true,
		iwp:            "union",
		plan:           planUnion,
	},
	{
		name: "join_dense",
		why:  "both join inputs busy: window store, join and tuple allocation dominate and ETS is idle, so a timestamp-management change must show no change",
		ddl: []string{
			`CREATE STREAM l (k INT, x INT, due INT) TIMESTAMP EXTERNAL SKEW 1s`,
			`CREATE STREAM r (k INT, x INT, due INT) TIMESTAMP EXTERNAL SKEW 1s`,
		},
		query:          `SELECT * FROM l JOIN r ON l.k = r.k WINDOW 20ms`,
		streams:        []string{"l", "r"},
		ts:             tuple.External,
		arrivalsPerSec: 1000,
		burst:          50,
		stepUs:         20,
		span:           20000,
		iwp:            "join",
		plan:           planJoin,
	},
	{
		name: "pipeline_dense",
		why:  "select, project, sink with no IWP operator, window or ETS: per-tuple cost is channels, batching, queues and tuples, the bypass for timestamp changes",
		ddl: []string{
			`CREATE STREAM s (k INT, x INT, due INT) TIMESTAMP EXTERNAL SKEW 1s`,
		},
		query:          `SELECT k, x, due FROM s WHERE x % 4 <> 0`,
		streams:        []string{"s"},
		ts:             tuple.External,
		arrivalsPerSec: 2000,
		burst:          100,
		stepUs:         5,
		plan:           planPipeline,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
