GO ?= go

.PHONY: all build vet test race bench bench-runtime bench-shard bench-net bench-dist bench-adaptive bench-obs bench-ckpt bench-smoke bench-join obs-smoke net-smoke adapt-smoke dist-smoke chaos ckpt-smoke fuzz-smoke loc check

all: check

build:
	$(GO) build ./...

# go vet, and gofmt: any file gofmt would rewrite fails the target (the
# benchmark's build cache under .bench_build/ is not ours to format).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Race-check everything: the partition rewrite touches the runtime, the
# operators, and the metrics counters, so the whole tree runs under -race.
race:
	$(GO) test -race ./...

# Smoke-run every benchmark once so bit-rot in bench code is caught by CI.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Full batched-vs-per-tuple measurement; writes BENCH_runtime.json.
bench-runtime:
	$(GO) run ./cmd/etsbench -runtime

# Partition-rewrite shard sweep (1/2/4/8) on the union+join workload;
# writes BENCH_shard.json.
bench-shard:
	$(GO) run ./cmd/etsbench -shards

# Loopback wire-ingest measurement (remote vs in-process end-to-end latency)
# plus the kill-the-client watchdog check; writes BENCH_net.json.
bench-net:
	$(GO) run ./cmd/etsbench -net

# Distributed-cut measurement: the sharded join once in a single process and
# once cut across a coordinator plus two loopback workers; writes
# BENCH_dist.json and exits non-zero if the result counts diverge.
bench-dist:
	$(GO) run ./cmd/etsbench -dist

# Punctuation-tracing overhead measurement (span collector on vs off on
# the batched union workload); writes BENCH_obs.json and warns if the
# overhead exceeds the 5% budget.
bench-obs:
	$(GO) run ./cmd/etsbench -obs

# Adaptive-controller measurement: static sweep vs self-tuning on the
# drifting-skew union+join workload plus the probe-reorder sub-benchmark;
# writes BENCH_adaptive.json and exits non-zero if any acceptance gate
# (exact join rows, zero late, ≥1.3× static-default, ≥0.85× best static,
# ≥1 applied rebalance, ≥1 probe reorder) fails.
bench-adaptive:
	$(GO) run ./cmd/etsbench -adaptive

# Checkpoint measurement: the kill-restore-verify crash drill, then the
# steady-state overhead of barrier-aligned checkpointing (no coordinator vs
# a 200ms cadence) on the union+aggregate workload; exits non-zero if the
# drill fails or overhead exceeds the 5% budget. It writes BENCH_ckpt.json,
# which is an output of the run and is not kept in the tree.
bench-ckpt:
	$(GO) run ./cmd/etsbench -ckpt

# The repository's benchmark (bench/, BENCHMARK.json) is a module of its own,
# so `go test ./...` at the root never reaches it: run its cross-check of
# reference.go against internal/exec and its short end-to-end smoke run.
bench-smoke:
	cd bench && $(GO) test -race ./...

# One run of the benchmark's join workload, as the driver runs it: the six
# end-to-end metrics of the hash join's state layout in about 30 s.
bench-join:
	bash bench/run.sh --workload join_dense --seed 1 --seconds 28 --trace 0

# Kill-restore-verify crash drill under the race detector: a checkpointed
# run killed without drain, restored from the latest snapshot, watermark
# replay from the sources' retained feeds, exact-output comparison.
ckpt-smoke:
	$(GO) test -race ./internal/ckpt
	$(GO) run -race ./cmd/etsbench -ckpt-verify

# End-to-end observability check (scripts/obs_smoke.sh): phase 1 scrapes a
# live streamd and asserts the required metric families; phase 2 runs a
# networked streamd with tracing, feeds it the netmon workload, and asserts
# a complete punctuation timeline in /spans, the health/pprof endpoints,
# one streamtop render, and a non-empty span log on shutdown.
obs-smoke:
	sh scripts/obs_smoke.sh

# Networked-ingestion loopback round trip under -race: the netmon example's
# client/server path, then a scaled-down etsbench -net with the
# kill-the-client check (scripts/net_smoke.sh).
net-smoke:
	sh scripts/net_smoke.sh

# Distributed-execution smoke under the race detector: the dist package's
# property and end-to-end tests, then scripts/dist_smoke.sh — the distquery
# stalled-link drill (worker watchdogs must force ETS into a quiet network
# link), a scaled-down etsbench -dist with the exact-output check, and a
# real streamd coordinator + 2 workers fed over the wire with a clean
# SIGINT drain.
dist-smoke:
	$(GO) test -race ./internal/dist
	sh scripts/dist_smoke.sh

# Adaptive-controller smoke under the race detector: the controller unit
# tests (batch climb, barrier rebalance, probe reorder, the reconfig-at-
# boundary property), then a short self-tuning run that must issue and
# apply at least one retune at a punctuation boundary with the join exact
# and zero late deliveries.
adapt-smoke:
	$(GO) test -race ./internal/adapt ./internal/runtime ./internal/partition
	$(GO) run -race ./cmd/etsbench -adaptive-smoke

# Seeded chaos soak under the race detector: node panics, 1% source drops,
# and a mid-run source stall on the union workload; exits non-zero if any
# fault-tolerance invariant (clean finish, exact tuple accounting,
# watchdog-forced ETS, watermark-ordered output) is violated.
chaos:
	$(GO) run -race ./cmd/etsbench -chaos -chaos-duration 2s

# Short coverage-guided fuzz of the CQL parser, the wire-protocol frame
# decoder, and the operator-state checkpoint codecs (panic/hang/losslessness
# on arbitrary input).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s -run '^$$' ./internal/cql
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzStateRoundTrip -fuzztime=30s -run '^$$' ./internal/ops

# Non-test Go lines outside the benchmark: the count deletion PRs quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

check: vet build test race bench bench-smoke obs-smoke net-smoke adapt-smoke dist-smoke chaos ckpt-smoke
