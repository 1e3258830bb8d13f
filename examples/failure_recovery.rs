//! Failure recovery on the event-driven group runtime, three acts:
//!
//! 1. **Silent crashes** — detected by member heartbeats (§3.2), crashed
//!    members' records are evicted from the survivors' neighbor tables,
//!    the server broadcasts replacement candidates, and in the meantime
//!    rekey forwarding routes around the suspects by falling back to the
//!    next live neighbor of the same `(i, j)` table entry (§2.3, K = 4
//!    backups).
//! 2. **Partition and heal** — two members are cut off long enough to be
//!    wrongfully departed; after the heal the server disowns them
//!    (`NotMember`) and they rejoin from scratch.
//! 3. **Server kill and respawn** — the key server dies mid-run and
//!    resumes from its checkpoint journal with a bumped epoch; every
//!    member notices the epoch change and resyncs.
//!
//! Run with: `cargo run --release --example failure_recovery`

use group_rekeying::id::IdSpec;
use group_rekeying::net::{MatrixNetwork, PlanetLabParams};
use group_rekeying::proto::SERVER_NODE;
use group_rekeying::proto::{ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime};
use group_rekeying::sim::{seeded_rng, FaultPlan, NodeId};

const SEC: u64 = 1_000_000;

fn main() {
    crash_detection();
    partition_heal();
    server_restart();
}

/// Act 2: a partition wrongfully departs two members; the self-healing
/// machinery walks them through `NotMember` → rejoin after the heal.
fn partition_heal() {
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut seeded_rng(17));
    let spec = IdSpec::new(3, 8).expect("valid spec");
    let config = GroupConfig::for_spec(&spec).k(2).seed(17);
    // Members with join handles 0 and 1 (simulator nodes 1 and 2) lose
    // contact with everyone else from t = 20 s to t = 56 s.
    let isolated = vec![NodeId(1), NodeId(2)];
    let plan = FaultPlan::new().partition(vec![isolated], 20 * SEC, 56 * SEC);
    let mut rt = ShardedGroupRuntime::new(config, RuntimeConfig::default(), net).with_faults(plan);
    let trace: Vec<ChurnEvent> = (0..8)
        .map(|i| ChurnEvent::join(SEC + i * 200_000))
        .collect();
    rt.run_trace(&trace);
    rt.finish(150 * SEC);

    let report = rt.snapshot();
    println!("\n== partition: members 0 and 1 cut off from t = 20 s to t = 56 s ==\n");
    println!(
        "wrongful departures         {:>8}",
        report.failures_detected
    );
    println!("rejoins after the heal      {:>8}", report.rejoins);
    println!("copies cut by the partition {:>8}", report.copies_lost);
    println!("control retransmissions     {:>8}", report.retransmissions);
    assert_eq!(report.rejoins, 2, "both isolated members rejoin");
    assert_eq!(rt.group().len(), 8, "group back at full strength");
    rt.check_consistency()
        .expect("tables K-consistent after heal");
    let server_interval = rt.server().interval();
    for handle in 0..8 {
        let agent = rt.agent(handle).expect("member is back");
        assert_eq!(agent.interval(), server_interval, "member {handle} lags");
    }
    println!("\nrecovery timeline: cut at 20 s -> wrongfully departed (heartbeat evidence)");
    println!("-> heal at 56 s -> NotMember on next server probe -> rejoin -> current again.");
}

/// Act 3: the server is killed and respawns from its crash journal; the
/// epoch bump drives a group-wide resync.
fn server_restart() {
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut seeded_rng(23));
    let spec = IdSpec::new(3, 8).expect("valid spec");
    let config = GroupConfig::for_spec(&spec).k(2).seed(23);
    let plan = FaultPlan::new().outage(SERVER_NODE, 24 * SEC, 38 * SEC);
    let mut rt = ShardedGroupRuntime::new(config, RuntimeConfig::default(), net).with_faults(plan);
    let trace: Vec<ChurnEvent> = (0..10)
        .map(|i| ChurnEvent::join(SEC + i * 200_000))
        .collect();
    rt.run_trace(&trace);
    rt.finish(90 * SEC);

    let report = rt.snapshot();
    println!("\n== server killed at t = 24 s, respawned from its journal at t = 38 s ==\n");
    println!("journal checkpoints written {:>8}", report.checkpoints);
    println!("server restarts             {:>8}", report.restarts);
    println!("server epoch after respawn  {:>8}", rt.server_epoch());
    println!("deliveries lost to outage   {:>8}", report.suppressed);
    println!("member resyncs (epoch bump) {:>8}", report.resyncs);
    assert_eq!(report.restarts, 1);
    assert_eq!(rt.server_epoch(), 1);
    assert!(report.resyncs >= 10, "every member resynced");
    rt.check_consistency()
        .expect("tables K-consistent after restart");
    let server_interval = rt.server().interval();
    for handle in 0..10 {
        let agent = rt.agent(handle).expect("member survived the restart");
        assert_eq!(agent.interval(), server_interval, "member {handle} lags");
    }
    println!("\nrecovery timeline: checkpoint every interval -> crash swallows the tick chain");
    println!("-> respawn restores the last checkpoint, bumps the epoch, rekeys immediately");
    println!("-> members see the new epoch in Forward/ServerPong and resync -> current again.");
}

/// Act 1: silent rack crash, heartbeat detection, table repair.
fn crash_detection() {
    let params = PlanetLabParams {
        continent_hosts: vec![50, 30, 15, 10],
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, &mut seeded_rng(404));
    let spec = IdSpec::new(4, 8).expect("valid spec");
    let config = GroupConfig::for_spec(&spec).k(4).seed(404);
    let mut rt = ShardedGroupRuntime::new(config, RuntimeConfig::default(), net);

    // 80 members join over the first two intervals; at t = 35 s a whole
    // "rack" of 8 members crashes at the same instant — no LeaveRequest,
    // no notification, their nodes simply absorb every message from then
    // on. Only the steady-state heartbeats can find out.
    let members = 80usize;
    let crashed: Vec<usize> = (0..8).map(|i| i * 9 + 3).collect();
    let mut trace: Vec<ChurnEvent> = (0..members as u64)
        .map(|i| ChurnEvent::join(SEC + i * 200_000))
        .collect();
    for &victim in &crashed {
        trace.push(ChurnEvent::crash(35 * SEC, victim));
    }
    rt.run_trace(&trace);
    // Two heartbeat periods bound detection; run a few intervals past it.
    rt.finish(101 * SEC);

    let report = rt.snapshot();
    println!(
        "group of {members}, K = 4; {} members crashed silently at t = 35 s\n",
        crashed.len()
    );
    println!("rekey intervals completed   {:>8}", report.intervals);
    println!("heartbeat pings sent        {:>8}", report.pings);
    println!("stale records evicted       {:>8}", report.evictions);
    println!(
        "failures detected at server {:>8}",
        report.failures_detected
    );
    println!("messages absorbed by dead   {:>8}", report.dead_letters);

    assert_eq!(
        report.failures_detected,
        crashed.len() as u64,
        "every crash is detected"
    );
    assert_eq!(rt.group().len(), members - crashed.len());

    // The survivors' tables were repaired with the server's replacement
    // candidates and are K-consistent again; every survivor kept pace
    // with the rekey intervals throughout the outage window.
    rt.check_consistency()
        .expect("survivor tables repaired to K-consistency");
    let server_interval = rt.server().interval();
    for handle in 0..members {
        if crashed.contains(&handle) {
            continue;
        }
        let agent = rt.agent(handle).expect("survivor has keys");
        assert_eq!(agent.interval(), server_interval, "survivor {handle} lags");
    }
    println!(
        "\nsurvivor tables repaired: K-consistent, no ghost records; all {} survivors \
         hold the interval-{} group key.",
        members - crashed.len(),
        server_interval
    );
}
