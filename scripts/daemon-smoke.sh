#!/usr/bin/env bash
# End-to-end smoke of the fleet daemon (cmd/reprod) through the real
# binaries — the CI job that proves the service path, not just the
# packages:
#
#   1. build reprod, fleet and campaign, start the daemon on an ephemeral
#      port
#   2. cold `fleet run -addr` fills the daemon's store
#   3. warm re-run of the identical spec must be served entirely from the
#      store (0 misses, 100% hit rate)
#   4. both daemon runs' exports must be byte-identical to an in-process
#      `fleet run -no-cache` of the same spec
#   5. steps 2-4 again for a 2-cell `campaign -addr` grid
#   6. SIGTERM must drain cleanly and exit 0
set -euo pipefail

GO=${GO:-go}
workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
    rm -rf "$workdir"
    return 0
}
trap cleanup EXIT

echo "daemon-smoke: building reprod, fleet and campaign"
$GO build -o "$workdir/reprod" ./cmd/reprod
$GO build -o "$workdir/fleet" ./cmd/fleet
$GO build -o "$workdir/campaign" ./cmd/campaign

"$workdir/reprod" -listen 127.0.0.1:0 -store "$workdir/store" -workers 4 \
    2>"$workdir/reprod.log" &
daemon_pid=$!

# The daemon logs its resolved address once the listener is up; -listen :0
# keeps the smoke free of port collisions on shared runners.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^reprod: listening on \([^ ]*\).*/\1/p' "$workdir/reprod.log")
    [ -n "$addr" ] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "daemon-smoke: reprod died during startup:" >&2
        cat "$workdir/reprod.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "daemon-smoke: reprod never reported its address" >&2
    cat "$workdir/reprod.log" >&2
    exit 1
fi
echo "daemon-smoke: daemon up at $addr"

spec_flags=(-n 48 -workers 4 -seed 7
    -platforms exynos5410=2,fanless-phone=1
    -scenarios cold-start=2,bursty-interactive=1
    -ambient-jitter 8)

echo "daemon-smoke: cold run via daemon"
"$workdir/fleet" run "${spec_flags[@]}" -addr "$addr" \
    -json "$workdir/cold.json" -csv "$workdir/cold.csv" 2>&1 | tee "$workdir/cold.log"

echo "daemon-smoke: warm re-run via daemon (must be 100% store hits)"
"$workdir/fleet" run "${spec_flags[@]}" -addr "$addr" \
    -json "$workdir/warm.json" -csv "$workdir/warm.csv" 2>&1 | tee "$workdir/warm.log"
if ! grep -q ' 0 misses (100% hit rate)' "$workdir/warm.log"; then
    echo "daemon-smoke: warm re-run was not served entirely from the store:" >&2
    grep 'store' "$workdir/warm.log" >&2 || true
    exit 1
fi

echo "daemon-smoke: in-process reference run"
"$workdir/fleet" run "${spec_flags[@]}" -no-cache -quiet \
    -json "$workdir/local.json" -csv "$workdir/local.csv"

cmp "$workdir/cold.json" "$workdir/local.json"
cmp "$workdir/cold.csv" "$workdir/local.csv"
cmp "$workdir/warm.json" "$workdir/local.json"
cmp "$workdir/warm.csv" "$workdir/local.csv"
echo "daemon-smoke: daemon exports byte-identical to in-process"

grid_flags=(-policies without-fan,dtpm -benches dijkstra -seeds 1 -workers 2 -seed 7)

echo "daemon-smoke: cold campaign via daemon"
"$workdir/campaign" "${grid_flags[@]}" -addr "$addr" \
    -json "$workdir/grid-cold.json" -csv "$workdir/grid-cold.csv" 2>&1 | tee "$workdir/grid-cold.log"

echo "daemon-smoke: warm campaign re-run via daemon (must be 100% store hits)"
"$workdir/campaign" "${grid_flags[@]}" -addr "$addr" \
    -json "$workdir/grid-warm.json" -csv "$workdir/grid-warm.csv" 2>&1 | tee "$workdir/grid-warm.log"
if ! grep -q ' 0 misses (100% hit rate)' "$workdir/grid-warm.log"; then
    echo "daemon-smoke: warm campaign re-run was not served entirely from the store:" >&2
    grep 'store' "$workdir/grid-warm.log" >&2 || true
    exit 1
fi

echo "daemon-smoke: in-process campaign reference run"
"$workdir/campaign" "${grid_flags[@]}" -no-cache -quiet \
    -json "$workdir/grid-local.json" -csv "$workdir/grid-local.csv"

cmp "$workdir/grid-cold.json" "$workdir/grid-local.json"
cmp "$workdir/grid-cold.csv" "$workdir/grid-local.csv"
cmp "$workdir/grid-warm.json" "$workdir/grid-local.json"
cmp "$workdir/grid-warm.csv" "$workdir/grid-local.csv"
echo "daemon-smoke: daemon campaign exports byte-identical to in-process"

echo "daemon-smoke: SIGTERM drain"
kill -TERM "$daemon_pid"
status=0
wait "$daemon_pid" || status=$?
daemon_pid=""
if [ "$status" -ne 0 ]; then
    echo "daemon-smoke: reprod exited $status after SIGTERM, want 0:" >&2
    cat "$workdir/reprod.log" >&2
    exit 1
fi
if ! grep -q 'drained, exiting' "$workdir/reprod.log"; then
    echo "daemon-smoke: reprod never logged a clean drain:" >&2
    cat "$workdir/reprod.log" >&2
    exit 1
fi
echo "daemon-smoke: ok"
