#!/bin/sh
# Distributed-execution smoke test, fully under the race detector.
#
# Two stages:
#   1. The distquery example: a coordinator plus two workers in one process,
#      a sharded union cut across them, a feed that goes silent mid-stream.
#      The worker watchdogs must force skew-bounded ETS into the quiet
#      network links (the coordinator runs without a watchdog, so nobody
#      else can), the sink watermark must keep advancing during the stall,
#      and the final drain must account for every sent tuple.
#   2. Real processes: two `streamd -worker` instances and one
#      `streamd -coordinator`, fed over the wire by the netmon example.
#      Results must reach the coordinator's CSV output and SIGINT must
#      drain all three processes to a clean exit.
set -eu

workdir=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "dist-smoke: distquery stalled-link drill (-race)"
go run -race ./examples/distquery >"$workdir/distquery.out" 2>&1 || {
    echo "dist-smoke: distquery failed" >&2
    cat "$workdir/distquery.out" >&2
    exit 1
}
grep -q 'forced ETS on workers: [1-9]' "$workdir/distquery.out" || {
    echo "dist-smoke: no worker forced ETS into the stalled link" >&2
    cat "$workdir/distquery.out" >&2
    exit 1
}
grep -q 'distquery: OK' "$workdir/distquery.out" || {
    echo "dist-smoke: distquery assertions failed" >&2
    cat "$workdir/distquery.out" >&2
    exit 1
}

echo "dist-smoke: streamd coordinator + 2 workers over loopback (-race)"
go build -race -o "$workdir/streamd" ./cmd/streamd
go build -race -o "$workdir/netmon" ./examples/netmon

"$workdir/streamd" -worker 127.0.0.1:0 >"$workdir/w1.out" 2>&1 &
w1=$!
pids="$w1"
"$workdir/streamd" -worker 127.0.0.1:0 >"$workdir/w2.out" 2>&1 &
w2=$!
pids="$pids $w2"

addr_of() { # extract the bound address a worker logged
    sed -n 's/.*worker listening on \(.*\)/\1/p' "$1"
}
i=0
while [ -z "$(addr_of "$workdir/w1.out")" ] || [ -z "$(addr_of "$workdir/w2.out")" ]; do
    i=$((i + 1))
    [ $i -gt 100 ] && { echo "dist-smoke: workers never came up" >&2; exit 1; }
    sleep 0.1
done
a1=$(addr_of "$workdir/w1.out")
a2=$(addr_of "$workdir/w2.out")

"$workdir/streamd" -coordinator "$a1,$a2" -listen 127.0.0.1:0 \
    -ddl 'CREATE STREAM backbone (flow int, bytes int) TIMESTAMP EXTERNAL SKEW 100ms;
          CREATE STREAM mgmt (flow int, code int) TIMESTAMP EXTERNAL SKEW 100ms' \
    -q 'SELECT backbone.flow, bytes, code FROM backbone JOIN mgmt ON backbone.flow = mgmt.flow WINDOW 2s' \
    >"$workdir/coord.csv" 2>"$workdir/coord.err" &
co=$!
pids="$pids $co"
i=0
while ! grep -q 'deployed plan' "$workdir/coord.err"; do
    i=$((i + 1))
    [ $i -gt 100 ] && {
        echo "dist-smoke: coordinator never deployed" >&2
        cat "$workdir/coord.err" >&2
        exit 1
    }
    sleep 0.1
done
ingest=$(sed -n 's/.*ingest listening on \(.*\)/\1/p' "$workdir/coord.err")

"$workdir/netmon" -addr "$ingest" -seconds 10 >"$workdir/feed.out" 2>&1 || {
    echo "dist-smoke: netmon feed failed" >&2
    cat "$workdir/feed.out" >&2
    exit 1
}

kill -INT "$co"
wait "$co" || {
    echo "dist-smoke: coordinator exited non-zero" >&2
    cat "$workdir/coord.err" >&2
    exit 1
}
kill -INT "$w1" "$w2"
wait "$w1" || { echo "dist-smoke: worker 1 exited non-zero" >&2; cat "$workdir/w1.out" >&2; exit 1; }
wait "$w2" || { echo "dist-smoke: worker 2 exited non-zero" >&2; cat "$workdir/w2.out" >&2; exit 1; }
pids=""

grep -q 'deployed plan 1: [1-9][0-9]* nodes over 3 of 3 executors' "$workdir/coord.err" || {
    echo "dist-smoke: plan did not span all three executors" >&2
    cat "$workdir/coord.err" >&2
    exit 1
}
grep -q 'coordinator drained, [1-9]' "$workdir/coord.err" || {
    echo "dist-smoke: coordinator drained without results" >&2
    cat "$workdir/coord.err" >&2
    exit 1
}
results=$(($(wc -l <"$workdir/coord.csv") - 1))
[ "$results" -ge 1 ] || {
    echo "dist-smoke: no CSV results reached the coordinator" >&2
    exit 1
}
for w in 1 2; do
    grep -q 'worker stopped' "$workdir/w$w.out" || {
        echo "dist-smoke: worker $w did not drain cleanly" >&2
        cat "$workdir/w$w.out" >&2
        exit 1
    }
done
echo "dist-smoke: streamd cluster drained with $results results"
echo "dist-smoke: OK"
