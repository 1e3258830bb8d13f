//! `sim_mega` — `ShardedGroupRuntime::bootstrapped` over a grid network
//! with 2 % copy loss: bootstrap dealing, neighbor tables, the event
//! queue and hop-by-hop `Forward`/NACK recovery do nearly all the work.

use std::time::Instant;

use super::{Lap, Rep, RepOpts};
use crate::catalog::Metrics;
use crate::gen::Gen;
use crate::probes;
use crate::stats::median;
use crate::sut;
use crate::sys;
use crate::trace::Tracer;

pub struct Size {
    pub members: usize,
    pub depth: usize,
    pub base: u16,
    pub k: usize,
    pub intervals: usize,
    pub leaves_per_interval: usize,
    pub loss: f64,
}

const FULL: Size = Size {
    members: 16_384,
    depth: 5,
    base: 16,
    k: 1,
    intervals: 6,
    leaves_per_interval: 4,
    loss: 0.02,
};

const THUMBNAIL: Size = Size {
    members: 256,
    depth: 5,
    base: 16,
    k: 1,
    intervals: 6,
    leaves_per_interval: 2,
    loss: 0.02,
};

impl Size {
    /// The full size, or the 64–256-member one `cargo test` runs.
    pub fn of(thumbnail: bool) -> &'static Size {
        if thumbnail {
            &THUMBNAIL
        } else {
            &FULL
        }
    }
}

/// Repetitions of the probes that replay a whole layer call.
const PROBE_REPS: usize = 3;

/// `Group::bootstrap` alone at this workload's size, before the first
/// repetition of a traced run.
pub fn probe_tables(size: &Size, tr: &mut Tracer, m: &mut Metrics) {
    let spec = sut::spec(size.depth, size.base);
    probes::tables(&spec, size.k, size.members, PROBE_REPS, tr, m);
}

/// Simulated rekey period and NACK grace (the runtime's defaults).
const PERIOD_US: u64 = 10_000_000;
const NACK_GRACE_US: u64 = 2_000_000;

pub fn rep(size: &Size, opts: RepOpts<'_>) -> Rep {
    let RepOpts {
        seed,
        tracer: tr,
        probes,
    } = opts;
    let mut rep = Rep::default();
    let mut gen = Gen::new(seed ^ 0x3E_6A);
    let spec = sut::spec(size.depth, size.base);

    // ------------------------------------------------------------- setup
    let t0 = Instant::now();
    let mut rt = tr.call("runtime.shard.bootstrap", "driver", 0, || {
        sut::sharded_bootstrapped(
            sut::group_config(&spec, size.k, seed),
            sut::runtime_config(PERIOD_US, NACK_GRACE_US, size.loss, seed),
            sut::grid_default(size.members + 1),
            size.members,
        )
    });
    rep.setup_s = t0.elapsed().as_secs_f64();

    // ------------------------------------------------------------- drive
    // The seed chooses who leaves and when inside each interval; the
    // whole trace is scheduled up front, as a churn trace would be.
    let g0 = Instant::now();
    let leavers = gen.distinct(size.intervals * size.leaves_per_interval, size.members);
    for (i, &handle) in leavers.iter().enumerate() {
        let interval = (i / size.leaves_per_interval) as u64;
        let offset = 1_000_000 + gen.below((PERIOD_US - 2_000_000) as usize) as u64;
        sut::sharded_leave_at(&mut rt, interval * PERIOD_US + offset, handle);
    }
    rep.generator_ms.push(g0.elapsed().as_secs_f64() * 1e3);

    let drive = tr.enter("drive", "bench", 0);
    for n in 1..=size.intervals as u64 {
        // Interval n's tick fires at n·period; half a period later its
        // copies, NACKs and recoveries have all landed.
        let lap = Lap::start();
        tr.call("runtime.shard.run_until", "driver", n as u32, || {
            sut::sharded_run_until(&mut rt, n * PERIOD_US + PERIOD_US / 2)
        });
        let cost = lap.stop();
        rep.interval_wall_ms.push(cost.wall_ms);
        rep.costs.push(cost);
    }
    tr.exit(drive);

    // ------------------------------------------------------------ finish
    let t0 = Instant::now();
    let until = size.intervals as u64 * PERIOD_US + PERIOD_US / 2;
    tr.call("runtime.shard.finish", "driver", 0, || {
        sut::sharded_finish(&mut rt, until)
    });
    rep.finish_s = t0.elapsed().as_secs_f64();
    rep.peak_rss_mib = sys::peak_rss_mib();

    // ------------------------------------------------------------ verify
    let verify = tr.enter("verify", "bench", 0);
    let t0 = Instant::now();
    let j0 = Instant::now();
    let snapshot = sut::sharded_snapshot(&rt);
    let json = sut::snapshot_json(&snapshot);
    let snapshot_json_ms = j0.elapsed().as_secs_f64() * 1e3;
    let c = sut::snapshot_counters(&snapshot);
    let server = sut::sharded_server(&rt);
    let group_key = sut::server_group_key(server);
    let mut live = 0u64;
    let mut stale = 0u64;
    for handle in 0..size.members {
        if leavers.contains(&handle) {
            continue;
        }
        live += 1;
        let holds =
            sut::sharded_agent(&rt, handle).is_some_and(|a| sut::agent_group_key(a) == group_key);
        stale += u64::from(!holds);
    }
    rep.attempted += live;
    rep.failed += stale;
    if stale > 0 {
        rep.failures
            .push(format!("{stale} live members lack the group key"));
    }
    rep.check(c.members as u64 == live, || {
        format!("{} members left, expected {live}", c.members)
    });
    let c0 = Instant::now();
    let consistent = tr.call("table.check", "rekey-table", 0, || {
        sut::sharded_check_tables(&rt)
    });
    let check_ms = c0.elapsed().as_secs_f64() * 1e3;
    rep.check(consistent, || "check_consistency failed".into());
    rep.verify_s = t0.elapsed().as_secs_f64();
    tr.exit(verify);

    rep.live_members = live;
    // Intervals the drive phase completed (the flush may add one more).
    rep.check(c.intervals >= size.intervals as u64, || {
        format!("only {} intervals completed", c.intervals)
    });
    let apply_p50_ms = rep.set_apply_delays_from_hist(&c.apply_delay_us);
    rep.rekey_encryptions = c.tree_encryptions;
    rep.recv_encryptions_per_member =
        c.forwarded_encryptions as f64 / (live * c.intervals.max(1)) as f64;
    rep.counts = vec![
        // Simulated clock: exact for a seed.
        ("apply_delay_p50_ms", apply_p50_ms),
        (
            "sim_apply_delay_p95_ms",
            sut::hist_percentile(&c.apply_delay_us, 0.95) as f64 / 1e3,
        ),
        ("sim.peak_queue_depth", c.peak_queue_depth as f64),
        ("sim.delivered", c.delivered as f64),
    ];
    rep.counts.extend(super::recovery_counts(&c));
    let drive_ms: f64 = rep.interval_wall_ms.iter().sum();
    rep.timed = vec![
        (
            "member_intervals_per_s",
            (live as usize * size.intervals) as f64 * 1e3 / drive_ms,
        ),
        ("table.check_ms", check_ms),
        ("runtime.shard.bootstrap_ms", rep.setup_s * 1e3),
        (
            "runtime.shard.drive_ms_per_interval",
            drive_ms / size.intervals as f64,
        ),
        ("runtime.shard.finish_ms", rep.finish_s * 1e3),
        ("metrics.snapshot_json_ms", snapshot_json_ms),
    ];
    // Two repetitions of one seed must give byte-identical snapshots.
    rep.fingerprint = json;

    if let Some(m) = probes {
        let root = tr.enter("probes", "bench", 0);
        let mut gen = Gen::new(seed ^ 0x9_0BE5);
        let net = sut::grid_default(size.members + 1);
        let mut server = server.clone();
        // A member's handle is its host index.
        let mut agents: Vec<(usize, sut::Agent)> = (0..size.members)
            .filter_map(|h| sut::sharded_agent(&rt, h).map(|a| (h, a.clone())))
            .take(1024)
            .collect();
        probes::ids(&spec, &mut gen, tr, m);
        // The runtime closes an interval with `end_interval` and its members
        // apply it with `handle_rekey`; `deliver` is the synchronous form of
        // what the event queue does in between.
        let facade = probes::facade_intervals(
            &mut server,
            &net,
            &mut agents,
            &mut Vec::new(),
            (size.leaves_per_interval, 0),
            PROBE_REPS,
            &mut gen,
            tr,
        );
        m.set("facade.end_interval_ms", median(&facade.end_interval_ms));
        m.set("facade.deliver_ms", median(&facade.deliver_ms));
        m.set(
            "facade.handle_rekey_us_per_member",
            median(&facade.handle_rekey_us_per_member),
        );
        probes::transport(&server, &net, &facade.message, PROBE_REPS, &mut gen, tr, m);
        probes::scheduler(c.peak_queue_depth, &mut gen, tr, m);
        probes::hist_record(&mut gen, tr, m);
        tr.exit(root);
    }
    rep
}
