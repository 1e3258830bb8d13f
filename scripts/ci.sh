#!/usr/bin/env sh
# CI gate. Network-restricted: all dependencies are vendored (see
# [patch.crates-io] in Cargo.toml), so everything runs with --offline.
#
#   scripts/ci.sh
#
# Runs the release build, the full test suite, the runtime and chaos
# soaks, the doc tests, the formatting check, clippy and rustdoc with
# warnings denied — the same bar every PR must clear.
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

echo "==> mega soak (65k members on the sharded windowed executor, 1% loss)"
cargo test --offline --release -q --test mega_soak -- --ignored

echo "==> bench_runtime sweep smoke (classic 64/256/1024 + sharded 65k mega point)"
cargo run --offline --release -q -p rekey-bench --bin bench_runtime -- --mega-cap 65536 > /dev/null

echo "==> loopback-UDP load-test smoke (1k members over real sockets, bounded wall-clock)"
cargo run --offline --release -q -p rekey-bench --bin load_test -- --members 1024 --intervals 2 > /dev/null

echo "==> bench_failover smoke (replica count x kill timing, schema-validated snapshots)"
cargo run --offline --release -q -p rekey-bench --bin bench_failover > /dev/null

echo "==> bench_crypto sweep (serial vs parallel seal at 4k/64k, byte-identity + schema check)"
cargo run --offline --release -q -p rekey-bench --bin bench_crypto > /dev/null

echo "==> criterion crypto_batch smoke (churn interval x 1/2/4/8 seal threads, one pass)"
cargo bench --offline -q -p rekey-bench --bench crypto_batch -- --test > /dev/null

echo "==> benchmark package tests (thumbnail runs of all four workloads, catalogue == BENCHMARK.json)"
cargo test --offline -q --manifest-path bench/Cargo.toml

echo "==> cargo test --doc"
cargo test --offline --workspace -q --doc

echo "==> cargo fmt --check"
cargo fmt --check

# `-D warnings` denies clippy::clone_on_copy: IDs, prefixes and member
# records are `Copy`, so a `.clone()` on one is a leftover to delete.
echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

echo "==> ci.sh: all green"
