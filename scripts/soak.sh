#!/usr/bin/env bash
# Counts the intermittent failures of one test binary of the root package:
#
#   scripts/soak.sh <test-binary> <runs> [--burners N]
#
# Builds `cargo test --test <test-binary>` once, then runs the whole binary
# through cargo <runs> times, every second run under N CPU burners (`yes`
# processes; N defaults to 2, and `--burners 0` runs every run idle). Prints
# one line per run, the panic location and message of every failing test,
# and at the end failures/runs, split into idle and loaded runs. Exits 1 if
# any run failed.
#
# ROADMAP's gate for the failover regression is 0 failures in at least 60
# whole-binary runs of failover_soak, half of them under two burners:
#
#   scripts/soak.sh failover_soak 60
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/soak.sh <test-binary> <runs> [--burners N]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
binary=$1
runs=$2
burners=2
shift 2
case "${1:-}" in
    --burners) [ $# -eq 2 ] || usage; burners=$2 ;;
    "") ;;
    *) usage ;;
esac

log=$(mktemp)
pids=()
stop_burners() {
    if [ ${#pids[@]} -gt 0 ]; then
        kill "${pids[@]}" 2> /dev/null || true
        wait "${pids[@]}" 2> /dev/null || true
    fi
    pids=()
}
trap 'stop_burners; rm -f "$log"' EXIT

cargo test --offline -q --test "$binary" --no-run

failed=0
loaded=0
failed_loaded=0
for run in $(seq "$runs"); do
    mode=idle
    if [ $((run % 2)) -eq 0 ] && [ "$burners" -gt 0 ]; then
        mode="$burners burners"
        loaded=$((loaded + 1))
        for _ in $(seq "$burners"); do
            yes > /dev/null &
            pids+=($!)
        done
    fi
    if cargo test --offline -q --test "$binary" > "$log" 2>&1; then
        echo "run $run ($mode): ok"
    else
        echo "run $run ($mode): FAILED"
        grep -A1 "panicked at" "$log" | grep -v '^--$' | sed 's/^/    /' || true
        failed=$((failed + 1))
        [ "$mode" = idle ] || failed_loaded=$((failed_loaded + 1))
    fi
    stop_burners
done

echo "$binary: $failed/$runs runs failed" \
    "(idle $((failed - failed_loaded))/$((runs - loaded)), under $burners burners $failed_loaded/$loaded)"
[ "$failed" -eq 0 ]
