//! Reproducibility tests: every simulation in the workspace is
//! deterministic under a fixed seed — same topology, same IDs, same
//! multicast trees, same rekey messages, same experiment outputs.
//! This is a stated design property (DESIGN.md §5) that the figure
//! regeneration relies on.

use group_rekeying::id::{IdSpec, UserId};
use group_rekeying::keytree::{ModifiedKeyTree, RekeyArena};
use group_rekeying::net::gtitm::{generate, GtItmParams};
use group_rekeying::net::{HostId, MatrixNetwork, Network, PlanetLabParams};
use group_rekeying::proto::{tmesh_rekey_transport, AssignParams, Group, TransportOptions};
use group_rekeying::proto::{
    ChurnEvent, GroupConfig, MetricsSnapshot, RuntimeConfig, ShardedGroupRuntime,
};
use group_rekeying::sim::seeded_rng;
use group_rekeying::table::{Member, PrimaryPolicy};
use group_rekeying::tmesh::Source;

fn grow(seed: u64) -> (MatrixNetwork, Group) {
    let mut rng = seeded_rng(seed);
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
    let spec = IdSpec::new(3, 8).unwrap();
    let mut group = Group::new(
        &spec,
        HostId(net.host_count() - 1),
        2,
        PrimaryPolicy::SmallestRtt,
        AssignParams::for_depth(3),
    );
    for h in 0..12 {
        group.join(HostId(h), &net, h as u64).unwrap();
    }
    (net, group)
}

#[test]
fn topology_generation_is_deterministic() {
    let a = generate(&GtItmParams::small(), &mut seeded_rng(5));
    let b = generate(&GtItmParams::small(), &mut seeded_rng(5));
    assert_eq!(a.graph().router_count(), b.graph().router_count());
    assert_eq!(a.graph().link_count(), b.graph().link_count());
    for l in 0..a.graph().link_count() {
        let id = group_rekeying::net::LinkId(l);
        assert_eq!(a.graph().link(id), b.graph().link(id));
    }
    let c = generate(&GtItmParams::small(), &mut seeded_rng(6));
    let same_as_c = (a.graph().router_count(), a.graph().link_count())
        == (c.graph().router_count(), c.graph().link_count())
        && (0..a.graph().link_count()).all(|l| {
            a.graph().link(group_rekeying::net::LinkId(l))
                == c.graph().link(group_rekeying::net::LinkId(l))
        });
    assert!(!same_as_c, "different seeds must differ somewhere");
}

#[test]
fn rtt_matrices_are_deterministic() {
    let a = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut seeded_rng(9));
    let b = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut seeded_rng(9));
    for x in 0..a.host_count() {
        for y in 0..a.host_count() {
            assert_eq!(a.rtt(HostId(x), HostId(y)), b.rtt(HostId(x), HostId(y)));
        }
    }
}

#[test]
fn group_growth_and_multicast_are_deterministic() {
    let (net_a, group_a) = grow(77);
    let (net_b, group_b) = grow(77);
    let ids_a: Vec<UserId> = group_a.members().iter().map(|m| m.id).collect();
    let ids_b: Vec<UserId> = group_b.members().iter().map(|m| m.id).collect();
    assert_eq!(ids_a, ids_b, "ID assignment is deterministic");

    let out_a = group_a.tmesh().multicast(&net_a, Source::Server);
    let out_b = group_b.tmesh().multicast(&net_b, Source::Server);
    assert_eq!(out_a.transmissions(), out_b.transmissions());
    assert_eq!(out_a.finished_at(), out_b.finished_at());
}

#[test]
fn rekey_messages_and_split_transport_are_deterministic() {
    let run = |seed: u64| -> (Vec<String>, Vec<u64>, u64) {
        let (net, mut group) = grow(seed);
        let mut rng = seeded_rng(seed ^ 0xAAAA);
        let ids: Vec<UserId> = group.members().iter().map(|m| m.id).collect();
        let mut tree = ModifiedKeyTree::new(group.spec());
        let mut arena = RekeyArena::new();
        tree.batch_rekey(&ids, &[], &mut rng, &mut arena).unwrap();
        let leaver = ids[5];
        group.leave(&leaver, &net).unwrap();
        let out = tree
            .batch_rekey(&[], &[leaver], &mut rng, &mut arena)
            .unwrap();
        let enc_ids: Vec<String> = out
            .encryptions()
            .iter()
            .map(|e| e.id().to_string())
            .collect();
        let report = tmesh_rekey_transport(
            &group.tmesh(),
            &net,
            out.encryptions(),
            TransportOptions::split(),
        );
        let rtt_fingerprint: u64 = (0..net.host_count())
            .map(|h| net.rtt(HostId(0), HostId(h)))
            .sum();
        (enc_ids, report.received, rtt_fingerprint)
    };
    assert_eq!(run(33), run(33));
    // Different seed ⇒ different topology; the RTT fingerprint always
    // differs even if the small group happens to collapse to the same ID
    // assignment under both topologies.
    assert_ne!(run(33), run(34));
}

/// One member's outcome of the message-level join, as pinned below: ID
/// digits, host, and `joined_at` (the server's clock at admission).
type JoinPin = ([u16; 3], usize, u64);

/// A §3.1 join session on the simulated driver, heartbeats off: host `i`
/// asks to join at `times[i]` and each `(host, at)` of `leaves` asks to
/// leave at `at`. Returns the survivors in host order and the snapshot.
fn join_session(
    spec: &IdSpec,
    net: MatrixNetwork,
    times: &[u64],
    leaves: &[(usize, u64)],
) -> (Vec<Member>, MetricsSnapshot) {
    let group = GroupConfig::for_spec(spec).k(2);
    let config = RuntimeConfig::builder().heartbeat_period(1 << 40).build();
    let mut rt = ShardedGroupRuntime::new(group, config, net);
    let mut trace: Vec<ChurnEvent> = times.iter().map(|&at| ChurnEvent::join(at)).collect();
    trace.extend(leaves.iter().map(|&(host, at)| ChurnEvent::leave(at, host)));
    let last = trace.iter().map(|e| e.at).max().unwrap_or(0);
    rt.run_trace(&trace);
    rt.finish(last + 300_000_000);
    let mut members = rt.group().members().to_vec();
    members.sort_by_key(|m| m.host);
    (members, rt.snapshot())
}

/// An ID of the `(4, 16)` sessions as one number.
fn id_number(m: &Member) -> u64 {
    m.id.digits().iter().fold(0, |a, &d| a * 16 + u64::from(d))
}

/// The distributed §3.1 join — each joiner queries members and pings the
/// users step 3 reads, as `RtMsg` traffic on `ShardedGroupRuntime` — gives
/// the same rosters and snapshots on identical runs, and the recorded
/// rosters. (The probes' statistics are pinned by the crate's own
/// `join_statistics_are_deterministic`.)
#[test]
fn distributed_join_protocol_is_deterministic() {
    let run = |spacing: u64| {
        let net =
            MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut seeded_rng(1234));
        let spec = IdSpec::new(3, 8).unwrap();
        let times: Vec<u64> = (0..10).map(|i| i * spacing).collect();
        join_session(&spec, net, &times, &[])
    };
    // Concurrent joins (1.5 ms apart) and sequential ones (1 s apart, so
    // every joiner after the first probes the group).
    for (spacing, delivered, pins) in [
        (1_500, 879, CONCURRENT_JOINS),
        (1_000_000, 1_043, SEQUENTIAL_JOINS),
    ] {
        let (members, snapshot) = run(spacing);
        assert_eq!((members.clone(), snapshot.clone()), run(spacing));
        assert_eq!(snapshot.delivered, delivered, "spacing {spacing} µs");
        let got: Vec<JoinPin> = members
            .iter()
            .map(|m| {
                let d = m.id.digits();
                ([d[0], d[1], d[2]], m.host.0, m.joined_at)
            })
            .collect();
        assert_eq!(got, pins, "spacing {spacing} µs");
    }

    // Thirty sequential joins on the 227-host PlanetLab substrate with
    // (D, B) = (4, 16), where the 9 ms threshold of the third digit is
    // close to many gateway RTT estimates.
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut seeded_rng(1));
    let spec = IdSpec::new(4, 16).unwrap();
    let times: Vec<u64> = (0..30).map(|i| i * 10_000_000).collect();
    let (members, snapshot) = join_session(&spec, net, &times, &[]);
    assert_eq!(snapshot.delivered, 5_296);
    assert_eq!(
        members.iter().map(id_number).collect::<Vec<_>>(),
        [
            0, 1, 2, 3, 256, 512, 768, 769, 770, 771, 1024, 1025, 1026, 1280, 1281, 1282, 1283,
            1536, 1537, 1538, 1539, 1792, 2048, 2049, 2050, 2051, 1808, 1809, 1040, 1041
        ]
    );

    // A session with leaves on the same substrate: 24 joins 5 s apart and
    // a 25th at 200 s; node 9 leaves at 150 s, and nodes 17 and 5 leave
    // 50 ms and 100 ms into the last join.
    let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut seeded_rng(11));
    let mut times: Vec<u64> = (0..24).map(|i| i * 5_000_000).collect();
    times.push(200_000_000);
    let leaves = [(9, 150_000_000), (17, 200_050_000), (5, 200_100_000)];
    let (members, snapshot) = join_session(&spec, net, &times, &leaves);
    assert_eq!(snapshot.delivered, 3_957);
    assert_eq!(
        members.iter().map(id_number).collect::<Vec<_>>(),
        [
            0, 256, 512, 513, 768, 770, 771, 1024, 1026, 1280, 1281, 1282, 1536, 1537, 1538, 272,
            16, 1792, 1793, 1794, 1795, 2048
        ]
    );
}

const CONCURRENT_JOINS: &[JoinPin] = &[
    ([0, 0, 2], 0, 225_426),
    ([0, 0, 1], 1, 221_277),
    ([0, 0, 0], 2, 57_860),
    ([0, 0, 3], 3, 236_610),
    ([0, 1, 1], 4, 744_509),
    ([0, 1, 0], 5, 280_815),
    ([0, 2, 0], 6, 324_012),
    ([0, 0, 5], 7, 289_251),
    ([0, 3, 0], 8, 1_196_227),
    ([0, 0, 4], 9, 274_485),
];

const SEQUENTIAL_JOINS: &[JoinPin] = &[
    ([0, 0, 0], 0, 69_706),
    ([0, 0, 1], 1, 1_217_089),
    ([0, 0, 2], 2, 2_185_912),
    ([0, 0, 3], 3, 3_240_850),
    ([0, 1, 0], 4, 4_675_759),
    ([0, 1, 1], 5, 5_465_401),
    ([0, 1, 2], 6, 6_422_304),
    ([0, 1, 3], 7, 7_497_967),
    ([0, 2, 0], 8, 9_079_157),
    ([0, 3, 0], 9, 9_702_167),
];

#[test]
fn lossy_transport_is_deterministic_in_the_loss_seed() {
    use group_rekeying::proto::lossy_rekey_transport;
    let fingerprint = |loss_seed: u64| -> (u64, u64, Vec<usize>, Vec<u64>) {
        let (net, mut group) = grow(21);
        let mut rng = seeded_rng(0x21);
        let ids: Vec<UserId> = group.members().iter().map(|m| m.id).collect();
        let mut tree = ModifiedKeyTree::new(group.spec());
        let mut arena = RekeyArena::new();
        tree.batch_rekey(&ids, &[], &mut rng, &mut arena).unwrap();
        let leaver = ids[4];
        group.leave(&leaver, &net).unwrap();
        let out = tree
            .batch_rekey(&[], &[leaver], &mut rng, &mut arena)
            .unwrap();
        let report = lossy_rekey_transport(
            &group.tmesh(),
            out.encryptions(),
            0.3,
            &mut seeded_rng(loss_seed),
        );
        (
            report.copies_lost,
            report.recovery_encryptions,
            report.recovering_members,
            report.received,
        )
    };
    assert_eq!(fingerprint(5), fingerprint(5), "same loss seed, same run");
    assert_ne!(
        fingerprint(5),
        fingerprint(6),
        "a different loss seed must change which copies drop"
    );
}

#[test]
fn group_runtime_is_deterministic_under_loss_and_churn() {
    use group_rekeying::proto::{ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime};
    const SEC: u64 = 1_000_000;
    let fingerprint = |seed: u64| {
        let mut rng = seeded_rng(0x77);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let spec = IdSpec::new(3, 8).unwrap();
        let config = GroupConfig::for_spec(&spec).k(2).seed(3);
        let runtime_config = RuntimeConfig::builder().loss(0.25).seed(seed).build();
        let mut rt = ShardedGroupRuntime::new(config, runtime_config, net);
        let trace: Vec<ChurnEvent> = (0..10)
            .map(|i| ChurnEvent::join(SEC + i * 250_000))
            .chain([
                ChurnEvent::leave(35 * SEC, 2),
                ChurnEvent::crash(41 * SEC, 6),
            ])
            .collect();
        rt.run_trace(&trace);
        rt.finish(95 * SEC);
        let report = rt.snapshot();
        let key = rt.server().tree().group_key().cloned();
        let intervals: Vec<u64> = (0..10)
            .filter_map(|m| rt.agent(m).map(|a| a.interval()))
            .collect();
        (
            report.delivered,
            report.copies_lost,
            report.nacks,
            report.recovery_encryptions,
            report.evictions,
            key,
            intervals,
        )
    };
    assert_eq!(fingerprint(1), fingerprint(1), "runtime replays exactly");
    let (_, lost_a, ..) = fingerprint(1);
    let (_, lost_b, ..) = fingerprint(2);
    assert!(lost_a > 0 && lost_b > 0, "loss fired in both runs");
}

/// The seal-thread count is a pure performance knob: with the same seed,
/// a batch big enough to cross the parallel threshold produces
/// byte-identical encryptions, updated-ID lists, and group keys at 1, 2,
/// 4, and 8 worker threads, because per-slot nonces are derived from one
/// per-batch seed instead of drawn mid-seal.
#[test]
fn seal_thread_count_never_changes_the_bytes() {
    let run = |threads: usize| {
        let spec = IdSpec::new(3, 16).unwrap();
        let mut rng = seeded_rng(0x5EA1);
        let mut tree = ModifiedKeyTree::new(&spec);
        tree.set_seal_threads(threads);
        let mut arena = RekeyArena::new();
        let users: Vec<UserId> = (0..1400).map(|i| UserId::from_index(&spec, i)).collect();
        let out = tree.batch_rekey(&users, &[], &mut rng, &mut arena).unwrap();
        assert!(
            out.cost() >= 1024,
            "batch must cross the parallel threshold, got {}",
            out.cost()
        );
        let fingerprint = (out.encryptions().to_vec(), out.updated().to_vec());
        let leaves: Vec<UserId> = users[..200].to_vec();
        let out = tree
            .batch_rekey(&[], &leaves, &mut rng, &mut arena)
            .unwrap();
        (
            fingerprint,
            (out.encryptions().to_vec(), out.updated().to_vec()),
            tree.group_key().cloned(),
        )
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            run(threads),
            "threads={threads} diverged from the serial seal"
        );
    }
}

/// The same property one layer up: a full [`ShardedGroupRuntime`] churn-and-loss
/// run configured with different `seal_threads` values replays to a
/// byte-identical [`MetricsSnapshot`] JSON and the same group key.
#[test]
fn group_runtime_snapshot_is_identical_at_any_seal_thread_count() {
    use group_rekeying::proto::{ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime};
    const SEC: u64 = 1_000_000;
    let run = |threads: usize| {
        let mut rng = seeded_rng(0x99);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let spec = IdSpec::new(3, 8).unwrap();
        let config = GroupConfig::for_spec(&spec)
            .k(2)
            .seed(6)
            .seal_threads(threads);
        let runtime_config = RuntimeConfig::builder().loss(0.2).seed(11).build();
        let mut rt = ShardedGroupRuntime::new(config, runtime_config, net);
        let trace: Vec<ChurnEvent> = (0..10)
            .map(|i| ChurnEvent::join(SEC + i * 250_000))
            .chain([ChurnEvent::leave(35 * SEC, 3)])
            .collect();
        rt.run_trace(&trace);
        rt.finish(90 * SEC);
        (
            rt.snapshot().to_json(),
            rt.server().tree().group_key().cloned(),
        )
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            run(threads),
            "seal_threads={threads} changed an observable output"
        );
    }
}

/// Chaos runs are reproducible too: the same seed and the same
/// [`FaultPlan`] (partition + burst loss + jitter + a server outage)
/// yield identical [`MetricsSnapshot`]s — every counter, histogram, and
/// span, down to retransmissions and resyncs — byte-identical snapshot
/// JSON, and the same final group key.
#[test]
fn group_runtime_is_deterministic_under_a_fault_plan() {
    use group_rekeying::proto::{modulo_cells, SERVER_NODE};
    use group_rekeying::proto::{ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime};
    use group_rekeying::sim::{FaultPlan, GilbertElliott};
    const SEC: u64 = 1_000_000;
    let run = |seed: u64| {
        let mut rng = seeded_rng(0x88);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let spec = IdSpec::new(3, 8).unwrap();
        let config = GroupConfig::for_spec(&spec).k(2).seed(4);
        let runtime_config = RuntimeConfig::builder().seed(seed).build();
        let plan = FaultPlan::new()
            .burst_loss(GilbertElliott::moderate())
            .jitter(25_000)
            .partition(modulo_cells(8, 2), 20 * SEC, 44 * SEC)
            .outage(SERVER_NODE, 70 * SEC, 82 * SEC);
        let mut rt = ShardedGroupRuntime::new(config, runtime_config, net).with_faults(plan);
        let trace: Vec<ChurnEvent> = (0..8)
            .map(|i| ChurnEvent::join(SEC + i * 250_000))
            .collect();
        rt.run_trace(&trace);
        rt.finish(140 * SEC);
        (rt.snapshot(), rt.server().tree().group_key().cloned())
    };
    let (report_a, key_a) = run(9);
    let (report_b, key_b) = run(9);
    assert_eq!(report_a, report_b, "same seed + same plan replay exactly");
    assert_eq!(
        report_a.to_json(),
        report_b.to_json(),
        "snapshot JSON is byte-identical across identically seeded runs"
    );
    assert_eq!(key_a, key_b);
    assert!(report_a.copies_lost > 0, "burst loss fired");
    assert!(report_a.partition_cuts > 0, "the partition cut messages");
    assert_eq!(report_a.restarts, 1, "the server outage fired");
    let (report_c, _) = run(10);
    assert_ne!(
        report_a, report_c,
        "a different seed must change the fault draws"
    );
}
