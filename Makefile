GO ?= go

.PHONY: all build vet test race stress bench bench-smoke bench-join obs-smoke net-smoke dist-smoke examples-smoke fuzz-smoke loc knobs check

all: check

build:
	$(GO) build ./...

# go vet, and gofmt: any file gofmt would rewrite fails the target (the
# benchmark's build cache under .bench_build/ is not ours to format). The
# benchmark is a module of its own, so it is vetted from its directory: a
# change to an API it imports fails here, not at benchmark time.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Race-check everything: the partition rewrite touches the runtime, the
# operators, and the metrics counters, so the whole tree runs under -race.
# This is also where the fault drills run: TestChaosSoak (internal/runtime),
# TestKillRestoreVerify (internal/ckpt), TestAdaptiveSmoke (internal/adapt)
# and TestKillTheClient (client). internal/experiments alone takes 13-14
# minutes under -race on a 2-core box, past go test's 10-minute default.
race:
	$(GO) test -race -timeout 30m ./...

# The runtime's concurrency-sensitive tests, 20 runs each under the race
# detector: the bound read's crux tests and its differential slice against
# internal/exec, the checkpoint tests, and the idle-engine hand-off. An
# ordering bug that shows once in a few hundred runs shows here. About 3
# minutes on a 2-core box, most of it TestCheckpointRepeatsOnPlannedGraph.
STRESS_RUN = TestBoundRead|TestCheckpoint|TestIngestHandsIdleEngineTheCPU
stress:
	$(GO) test -race -count=20 -timeout 20m -run '$(STRESS_RUN)' ./internal/runtime

# Smoke-run every benchmark once so bit-rot in bench code is caught by CI.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository's benchmark (bench/, BENCHMARK.json) is a module of its own,
# so `go test ./...` at the root never reaches it: run its cross-check of
# reference.go against internal/exec and its short end-to-end smoke run.
bench-smoke:
	cd bench && $(GO) test -race ./...

# One run of the benchmark's join workload, as the driver runs it: the six
# end-to-end metrics of the hash join's state layout in about 30 s.
bench-join:
	bash bench/run.sh --workload join_dense --seed 1 --seconds 28 --trace 0

# End-to-end observability check (scripts/obs_smoke.sh): phase 1 scrapes a
# live streamd and asserts the required metric families; phase 2 runs a
# networked streamd with tracing, feeds it the netmon workload, and asserts
# a complete punctuation timeline in /spans, the health/pprof endpoints,
# one streamtop render, and a non-empty span log on shutdown.
obs-smoke:
	sh scripts/obs_smoke.sh

# Networked-ingestion loopback round trip under -race: the netmon example's
# client/server path (scripts/net_smoke.sh).
net-smoke:
	sh scripts/net_smoke.sh

# Distributed-execution smoke under the race detector: the dist package's
# property and end-to-end tests, then scripts/dist_smoke.sh — the distquery
# stalled-link drill (worker watchdogs must force ETS into a quiet network
# link) and a real streamd coordinator + 2 workers fed over the wire with a
# clean SIGINT drain.
dist-smoke:
	$(GO) test -race ./internal/dist
	sh scripts/dist_smoke.sh

# The in-process examples under the race detector, each under a timeout: a
# non-zero exit fails the target. multiway's three-way union runs the IWP
# core's n-input path on the concurrent runtime; cqlrepl reads an empty
# stdin and exits. (netmon and distquery run in net-smoke and dist-smoke.)
EXAMPLES_SMOKE = quickstart finance multiquery multiway cqlrepl
examples-smoke:
	@for ex in $(EXAMPLES_SMOKE); do \
		echo "examples-smoke: $$ex"; \
		timeout 300 $(GO) run -race ./examples/$$ex < /dev/null || { echo "examples-smoke: $$ex failed"; exit 1; }; \
	done

# Short coverage-guided fuzz of the CQL parser, the wire-protocol frame
# decoder, and the operator-state checkpoint codecs (panic/hang/losslessness
# on arbitrary input), and a differential fuzz of the CQL expression
# compiler against its boxed reference evaluator.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s -run '^$$' ./internal/cql
	$(GO) test -fuzz=FuzzCompileExpr -fuzztime=30s -run '^$$' ./internal/cql
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzStateRoundTrip -fuzztime=30s -run '^$$' ./internal/ops
	$(GO) test -fuzz=FuzzValueHash -fuzztime=30s -run '^$$' ./internal/tuple

# Non-test Go lines outside the benchmark: the count deletion PRs quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

# Independently settable values: fields per options struct (a line like
# `MinBatch, MaxBatch int` counts twice) and streamd's flags. Deletion PRs
# quote this before and after, next to `make loc`.
knobs:
	@for t in internal/runtime internal/adapt client internal/server; do \
		printf '%s.Options fields: ' $$t; \
		$(GO) doc ./$$t Options | awk '/^type Options struct/{s=1;next} /^}/{s=0} \
			s && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* /) \
			{n += split(substr($$0, RSTART, RLENGTH), a, ",")} END{print n+0}'; \
	done
	@printf 'streamd flags: '; grep -cE 'flag\.(Bool|String|Int|Int64|Duration|Func)(Var)?\(' cmd/streamd/main.go

check: vet build test race stress bench bench-smoke obs-smoke net-smoke dist-smoke examples-smoke
