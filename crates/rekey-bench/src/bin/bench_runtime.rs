//! The mega sweep: the simulated executor (`ShardedGroupRuntime`)
//! bootstraps N ∈ {65 536, 262 144, 1 048 576} members in one dealing
//! pass and drives two churned rekey intervals with 1% copy loss — the
//! only way to run the 262k / 1M points the README scale table quotes
//! (the benchmark proper, `bench/`, measures at 16 384).
//!
//! Prints one line per size to stdout: build time separately from the
//! drive rate, `member_intervals_per_sec` (intervals/s × members, the
//! per-member cost figure that should stay roughly flat as N grows), and
//! the recovery traffic the loss induced. Every snapshot is validated
//! against the promised schema first. Writes no file; the recorded perf
//! baseline is `bench/BASELINE.md`. `--mega-cap N` skips sizes above N
//! (CI smoke uses 65536). Run with `--release`.

use std::time::Instant;

use rekey_bench::{arg_usize, mega_runtime_fixture, schema};
use rekey_proto::{RuntimeConfig, ShardedGroupRuntime};

const SHARDS: usize = 8;
const LOSS: f64 = 0.01;
const SEED: u64 = 0xC4C4;

/// One mega point, run once (bootstraps alone take tens of seconds at
/// 10⁶ members; the run is deterministic, so repetition buys nothing but
/// heat). Build and drive are timed separately: the per-member cost
/// figure is about sustaining churn, not the one-off dealing pass.
fn run_size(members: usize) {
    let (net, group, leaves, finish, window) = mega_runtime_fixture(members);
    let runtime_config = RuntimeConfig::builder().loss(LOSS).seed(SEED).build();
    let build_start = Instant::now();
    let mut rt =
        ShardedGroupRuntime::bootstrapped(group, runtime_config, net, members, SHARDS, window)
            .expect("the fixture's ID space seats every member");
    let build_s = build_start.elapsed().as_secs_f64();
    for &(at, handle) in &leaves {
        rt.leave_at(at, handle);
    }
    let run_start = Instant::now();
    rt.finish(finish);
    let run_s = run_start.elapsed().as_secs_f64();
    let report = rt.snapshot();
    schema::validate_snapshot(&report.to_json());
    let intervals_per_sec = report.intervals as f64 / run_s;
    println!(
        "members {members:>9}  shards {SHARDS}  build_ms {:>9.1}  intervals {}  \
         intervals_per_sec {intervals_per_sec:>8.4}  member_intervals_per_sec {:>9.0}  \
         delivered {}  copies_lost {}  nacks {}  recovery_encryptions {}  \
         apply_delay_p50_us {}  apply_delay_p95_us {}  peak_queue_depth {}",
        build_s * 1e3,
        report.intervals,
        intervals_per_sec * members as f64,
        report.delivered,
        report.copies_lost,
        report.nacks,
        report.recovery_encryptions,
        report.apply_delay_us.p50(),
        report.apply_delay_us.p95(),
        report.peak_queue_depth,
    );
}

fn main() {
    let mega_cap = arg_usize("--mega-cap", 1_048_576);
    for members in [65_536usize, 262_144, 1_048_576] {
        if members <= mega_cap {
            run_size(members);
        }
    }
}
