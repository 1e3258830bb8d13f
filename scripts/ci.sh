#!/usr/bin/env sh
# CI gate. Network-restricted: all dependencies are vendored (see
# [patch.crates-io] in Cargo.toml), so everything runs with --offline.
#
#   scripts/ci.sh
#
# Runs the release build, the full test suite, the runtime, chaos,
# failover and mega soaks, the benchmark's thumbnail tests and one
# full-size correctness run per workload (scripts/bench_check.sh), the doc
# tests, the formatting check, clippy and rustdoc with warnings denied —
# the same bar every PR must clear — and
# checks that neither tracked size outcome rose (scripts/loc.sh --check) and
# that the figure outputs did not move: scripts/digests.sh --check
# regenerates join_cost, fig13, fig06–fig11, fig14, ablation_gnp,
# concurrent_transport, ablation_loss, ablation_packet_split, ablation_k and
# fig12 --runs 5 (stdout and stderr) and diffs them against results/.
#
# Not gated here yet: scripts/soak.sh <test-binary> <runs> counts a test
# binary's intermittent failures over many whole-binary runs, half of them
# under two CPU burners. `scripts/soak.sh failover_soak 60` is the gate
# ROADMAP's first item sets for the failover fix; it joins this script
# with that fix.
#
# Not gated here either: scripts/pairs.sh <parent-rev> <workload> [pairs]
# builds the benchmark at a parent revision and at the working tree, runs
# them in alternating seeded pairs and prints the parent-vs-change table a
# performance claim is judged by (results/issue*_parent_vs_change.md).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --offline --release --workspace --all-targets

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> runtime soak (1k members, 50+ intervals, churn + 2% loss)"
cargo test --offline --release -q --test runtime_soak -- --ignored

echo "==> chaos soak (1k members, burst loss + partition + server restart)"
cargo test --offline --release -q --test chaos_soak -- --ignored

echo "==> failover soak (1k members, replicated server, primary killed mid-interval)"
cargo test --offline --release -q --test failover_soak -- --ignored

echo "==> metrics smoke (200-member soak, snapshot JSON schema validation)"
cargo test --offline --release -q --test metrics_smoke -- --ignored

echo "==> mega soaks (65k members on 8 shards: 1% loss; then 3 replicas + burst loss + 3-way partition + primary kill)"
cargo test --offline --release -q --test mega_soak -- --ignored

echo "==> executor goldens at benchmark size (16k-member bootstrapped run renders its recorded snapshot, every member holds the server's table)"
cargo test --offline --release -q -p rekey-proto --test golden_executor -- --ignored

echo "==> group equivalence at benchmark size (4 096 dealt members, 2 000 joins and leaves against the full-scan reference)"
cargo test --offline --release -q -p rekey-proto --lib a_4096_member_dealt_group_matches_the_full_scan_reference -- --ignored

echo "==> bench_runtime mega sweep smoke (65k point; prints, writes nothing)"
cargo run --offline --release -q -p rekey-bench --bin bench_runtime -- --mega-cap 65536 > /dev/null

echo "==> benchmark package tests (thumbnail runs of all four workloads, catalogue == BENCHMARK.json)"
cargo test --offline -q --manifest-path bench/Cargo.toml

echo "==> benchmark correctness at full size (all four workloads, seed 1, fewest repetitions: \"correct\": true and \"failed\": 0)"
scripts/bench_check.sh

echo "==> cargo test --doc"
cargo test --offline --workspace -q --doc

echo "==> cargo fmt --check"
cargo fmt --check

# `-D warnings` denies clippy::clone_on_copy: IDs, prefixes and member
# records are `Copy`, so a `.clone()` on one is a leftover to delete. It
# also turns `-W unreachable_pub` into an error: an item that is `pub` but
# not reachable from its crate's root is `pub(crate)`, so `pub` means
# "used from outside the crate".
echo "==> cargo clippy -D warnings -W unreachable_pub"
cargo clippy --offline --workspace --all-targets -- -D warnings -W unreachable_pub

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

echo "==> tracked size outcomes (ROADMAP aim 2) against scripts/loc.baseline"
scripts/loc.sh --check

echo "==> figure outputs against results/ (15 regenerated .tsv/.log pairs, fig12 at --runs 5: tables, IDs, keys and sessions unmoved)"
scripts/digests.sh --check

echo "==> ci.sh: all green"
