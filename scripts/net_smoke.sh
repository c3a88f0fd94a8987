#!/bin/sh
# Networked-ingestion smoke test: a full loopback round trip under the race
# detector. The netmon example runs two wire-protocol clients (busy backbone,
# quiet mgmt with local punctuation) against a session server feeding the
# concurrent runtime. (The kill-the-client watchdog check is a Go test,
# TestKillTheClient in client/.)
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "net-smoke: netmon loopback round trip (-race)"
go run -race ./examples/netmon >"$workdir/netmon.out" 2>&1 || {
    echo "net-smoke: netmon failed" >&2
    cat "$workdir/netmon.out" >&2
    exit 1
}
grep -q 'correlation matches: [1-9]' "$workdir/netmon.out" || {
    echo "net-smoke: netmon produced no join results" >&2
    cat "$workdir/netmon.out" >&2
    exit 1
}
grep -q 'tuples over the wire: [1-9]' "$workdir/netmon.out" || {
    echo "net-smoke: no tuples crossed the wire" >&2
    cat "$workdir/netmon.out" >&2
    exit 1
}

echo "net-smoke: OK"
