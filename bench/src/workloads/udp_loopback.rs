//! `udp_loopback` — `UdpGroupDriver::bootstrapped` over the host's
//! loopback interface (not a real link: no wire latency, no link rate),
//! open loop at a fixed rekey period: the key server rekeys on its timer
//! whether or not members kept up, and churn is issued on that schedule.

use std::time::{Duration, Instant};

use super::{Lap, Rep, RepOpts};
use crate::gen::Gen;
use crate::probes;
use crate::sut;
use crate::sys;

pub struct Size {
    pub members: usize,
    pub depth: usize,
    pub base: u16,
    pub k: usize,
    pub intervals: usize,
    /// Leaves, and as many joins, per interval.
    pub churn: usize,
    pub period: Duration,
}

const FULL: Size = Size {
    members: 512,
    depth: 4,
    base: 8,
    k: 2,
    intervals: 16,
    churn: 4,
    period: Duration::from_millis(250),
};

const THUMBNAIL: Size = Size {
    members: 128,
    depth: 4,
    base: 8,
    k: 2,
    intervals: 8,
    churn: 2,
    period: Duration::from_millis(100),
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

/// An interval that has not been applied everywhere after this many
/// periods has missed its deadline.
const DEADLINE_PERIODS: u32 = 4;
const FINISH_BUDGET: Duration = Duration::from_secs(10);
/// Churn-free intervals between the drive phase and `finish`.
const QUIET_INTERVALS: usize = 4;
/// Hosts kept free for the joins of the probe that makes a rekey message.
const SPARE_HOSTS: usize = 16;

pub fn rep(size: &Size, opts: RepOpts<'_>) -> Rep {
    let RepOpts {
        seed,
        tracer: tr,
        probes,
    } = opts;
    let mut rep = Rep::default();
    let mut gen = Gen::new(seed ^ 0x0D_D9);
    let spec = sut::spec(size.depth, size.base);
    let joiners = size.intervals * size.churn;
    let hosts = size.members + joiners + SPARE_HOSTS;
    let period_us = size.period.as_micros() as u64;

    // ------------------------------------------------------------- setup
    let t0 = Instant::now();
    let booted = tr.call("runtime.udp.bootstrap", "driver", 0, || {
        sut::udp_bootstrapped(
            sut::group_config(&spec, size.k, seed),
            sut::runtime_config(period_us, period_us / 4, 0.0, seed),
            // No injected delay: datagrams travel at loopback speed.
            sut::grid(hosts + 1, 1, 0),
            size.members,
        )
    });
    let epoch = Instant::now();
    rep.setup_s = t0.elapsed().as_secs_f64();
    let mut rt = match booted {
        Ok(rt) => rt,
        Err(e) => {
            rep.check(false, || format!("bootstrap failed: {e}"));
            return rep;
        }
    };

    // ------------------------------------------------------------- drive
    // Founders leave in a seed-chosen order; joiners are fresh members.
    let leavers = gen.distinct(joiners, size.members);
    let traffic0 = sut::udp_traffic(&rt);
    let drive = tr.enter("drive", "bench", 0);
    let mut missed = 0u64;
    for n in 0..size.intervals {
        // Open loop on the server's side: it closes interval n on its own
        // timer, at `epoch + (n + 1) periods`, whether or not the members
        // kept up. Interval n's churn is due at the start of that period;
        // the generator issues it once interval n - 1 is seen complete,
        // because the driver counts a joiner that is not yet admitted as
        // lagging and so cannot report completion while one is pending.
        // The churn still lands inside its interval; `generator_late_ms`
        // says how late.
        let due = epoch + size.period * n as u32;
        rep.generator_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let lap = Lap::start();
        for j in 0..size.churn {
            sut::udp_leave(&mut rt, leavers[n * size.churn + j]);
            sut::udp_join(&mut rt);
        }
        let target = n as u64 + 2; // bootstrap completed interval 1
        let reached = tr.call(
            "runtime.udp.run_to_interval",
            "driver",
            n as u32 + 1,
            || sut::udp_run_to_interval(&mut rt, target, size.period * DEADLINE_PERIODS),
        );
        missed += u64::from(!reached);
        let cost = lap.stop();
        rep.interval_wall_ms.push(cost.wall_ms);
        rep.costs.push(cost);
    }
    tr.exit(drive);
    let traffic1 = sut::udp_traffic(&rt);
    rep.attempted += size.intervals as u64;
    rep.failed += missed;
    if missed > 0 {
        rep.failures.push(format!(
            "{missed} intervals missed their {DEADLINE_PERIODS}-period deadline"
        ));
    }

    // ------------------------------------------------------------ finish
    // Quiet intervals first: `finish` stops the members' retry
    // timers, so a repair still in flight when it is called can be lost
    // for good; with the churn over, the live timers settle every member.
    let t0 = Instant::now();
    let finish = tr.enter("finish", "bench", 0);
    for quiet in 0..QUIET_INTERVALS {
        let target = (size.intervals + quiet) as u64 + 2;
        let reached = tr.call("runtime.udp.run_to_interval", "driver", 0, || {
            sut::udp_run_to_interval(&mut rt, target, size.period * DEADLINE_PERIODS)
        });
        rep.check(reached, || {
            format!("quiet interval {target} missed its deadline")
        });
    }
    let converged = tr.call("runtime.udp.finish", "driver", 0, || {
        sut::udp_finish(&mut rt, FINISH_BUDGET)
    });
    tr.exit(finish);
    rep.finish_s = t0.elapsed().as_secs_f64();
    rep.check(converged, || {
        format!("finish() did not converge within {FINISH_BUDGET:?}")
    });
    rep.peak_rss_mib = sys::peak_rss_mib();

    // ------------------------------------------------------------ verify
    let verify = tr.enter("verify", "bench", 0);
    let t0 = Instant::now();
    let snapshot = sut::udp_snapshot(&rt);
    let c = sut::snapshot_counters(&snapshot);
    let traffic2 = sut::udp_traffic(&rt);
    let server = sut::udp_server(&rt);
    let group_key = sut::server_group_key(server);
    let expected_live = sut::server_member_count(server) as u64;
    let mut live = 0u64;
    let mut stale = 0u64;
    for handle in 0..sut::udp_member_count(&rt) {
        if let Some(agent) = sut::udp_agent(&rt, handle) {
            live += 1;
            stale += u64::from(sut::agent_group_key(agent) != group_key);
        }
    }
    // A member the server counts but no agent was collected for is stale too.
    stale += expected_live.saturating_sub(live);
    rep.attempted += expected_live;
    rep.failed += stale.min(expected_live);
    if stale > 0 {
        rep.failures
            .push(format!("{stale} live members lack the group key"));
    }
    // `check_consistency` needs every admitted member collected, which an
    // unconverged finish does not guarantee.
    let consistent = converged
        && tr.call("table.check", "rekey-table", 0, || {
            sut::udp_check_tables(&rt)
        });
    rep.check(consistent, || "check_consistency failed".into());
    rep.verify_s = t0.elapsed().as_secs_f64();
    tr.exit(verify);

    rep.live_members = expected_live;
    let apply_p50_ms = rep.set_apply_delays_from_hist(&c.apply_delay_us);
    rep.rekey_encryptions = c.tree_encryptions;
    rep.recv_encryptions_per_member =
        c.forwarded_encryptions as f64 / (expected_live * c.intervals.max(1)) as f64;
    let intervals = size.intervals as f64;
    rep.counts = vec![
        (
            "udp.datagrams_per_interval",
            (traffic1.packets_sent - traffic0.packets_sent) as f64 / intervals,
        ),
        (
            "udp.bytes_per_interval",
            (traffic1.bytes_sent - traffic0.bytes_sent) as f64 / intervals,
        ),
        (
            "udp.kernel_drops",
            traffic2
                .packets_sent
                .saturating_sub(traffic2.packets_received) as f64,
        ),
        ("udp.decode_errors", traffic2.decode_errors as f64),
    ];
    rep.counts.extend(super::recovery_counts(&c));
    rep.timed = vec![
        ("apply_delay_p50_ms", apply_p50_ms),
        ("runtime.udp.bootstrap_ms", rep.setup_s * 1e3),
        ("runtime.udp.finish_ms", rep.finish_s * 1e3),
    ];
    // The wall clock and the kernel make this workload's snapshot differ
    // run to run; only membership is pinned.
    rep.fingerprint = format!("{}/{}", c.joins, c.departures);

    if let Some(m) = probes {
        let root = tr.enter("probes", "bench", 0);
        let mut gen = Gen::new(seed ^ 0x9_0BE5);
        let net = sut::grid(hosts + 1, 1, 0);
        let mut server = server.clone();
        // The driver keeps its interval messages to itself: replay one
        // interval of this workload's churn on a clone of its server.
        let message = probes::facade_intervals(
            &mut server,
            &net,
            &mut Vec::new(),
            &mut (size.members + joiners..hosts).collect(),
            (size.churn, size.churn),
            1,
            &mut gen,
            tr,
        )
        .message;
        probes::wire_and_sockets(&spec, &server, &message, tr, m);
        probes::net_delay(&net, hosts, &mut gen, tr, m);
        tr.exit(root);
    }
    rep
}
