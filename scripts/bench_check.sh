#!/usr/bin/env sh
# Full-size correctness run of the benchmark's four workloads:
#
#   scripts/bench_check.sh
#
# Runs bench/ once per workload at its full size with the fewest
# repetitions (`--seed 1 --seconds 1 --trace 0`, ~1 min for all four) and
# reads the result object on the last line of standard output. Fails unless
# every workload reports `"correct": true` and `"failed": 0`; for a workload
# that does not, prints its `FAILED:` lines. `cargo test --manifest-path
# bench/Cargo.toml` runs only the thumbnail sizes; this is the check at the
# sizes the benchmark measures.
set -eu

cd "$(dirname "$0")/.."

cargo build --offline --release --quiet --manifest-path bench/Cargo.toml

out=$(mktemp)
trap 'rm -f "$out"' EXIT

bad=0
for workload in sim_mega udp_loopback sync_churn keytree_bulk; do
    cargo run --offline --release --quiet --manifest-path bench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > "$out"
    last=$(tail -n 1 "$out")
    case "$last" in
        *'"correct": true'*'"failed": 0,'*)
            echo "$workload: correct, $(echo "$last" | sed 's/.*"attempted": \([0-9]*\).*/\1/') checks, 0 failed"
            ;;
        *)
            echo "$workload: NOT correct"
            echo "$last" | grep -o '"correct": [a-z]*, "attempted": [0-9]*, "failed": [0-9]*' || true
            grep 'FAILED:' "$out" || echo "    (no failure strings; last line: $last)"
            bad=1
            ;;
    esac
done
exit "$bad"
