//! Golden values pinning "one executor, same protocol outcome". The
//! session outcomes (roster, server interval and epoch, group key,
//! per-member path keys) were recorded on the commit *before* the classic
//! single-queue `GroupRuntime` loop was deleted, by running this same file
//! against it, and the windowed executor that replaced it reproduces them.
//! On the 2 %-loss session only the outcome is pinned: its counters follow
//! *which* copies were lost, and `RuntimeConfig::loss` draws come from one
//! stream per lane.
//!
//! Every member's *local* neighbor table is not a recorded constant but a
//! derived property: it must equal the table the server's `Group` holds
//! for it, record for record — there is one table algorithm, and members
//! receive its result (ISSUE 25). Counters, histograms and snapshot
//! digests were re-recorded when that replaced the per-member
//! `NewMember`/`MemberLeft` broadcast, and again when `finish` became the
//! live protocol run to convergence instead of a shutdown mode and a
//! member stopped rotating its retransmissions away from a replica that
//! had answered since its last request (the failover session's outcome
//! moved with that), and again when the server began to answer a
//! non-member's NACK with `NotMember` (the failover session's outcome and
//! counters moved: six members cut off by its partition learn of their
//! eviction from their NACKs instead of their next heartbeat);
//! CHANGES.md lists each value that moved and why. A failing assertion
//! prints the current value.

use rekey_crypto::Key;
use rekey_id::{IdSpec, UserId};
use rekey_net::{GridNetwork, MatrixNetwork, Network, PlanetLabParams};
use rekey_proto::{member_node_with_replicas, replica_node};
use rekey_proto::{ChurnEvent, GroupConfig, MetricsSnapshot, RuntimeConfig, ShardedGroupRuntime};
use rekey_sim::{seeded_rng, FaultPlan, GilbertElliott, NodeId};

const SEC: u64 = 1_000_000;

/// FNV-1a over a stream of `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn id(&mut self, id: &UserId) {
        self.word(id.digits().len() as u64);
        for &d in id.digits() {
            self.word(u64::from(d));
        }
    }

    fn key(&mut self, key: &Key) {
        self.word(key.id().digits().len() as u64);
        for &d in key.id().digits() {
            self.word(u64::from(d));
        }
        self.word(key.version());
        for chunk in key.material().as_bytes().chunks(8) {
            self.word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
    }
}

/// What a finished session is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    members: usize,
    interval: u64,
    epoch: u64,
    /// `(id, host, joined_at)` of the roster in server order.
    roster: u64,
    group_key: u64,
    /// The server tree's leaf-to-root keys of every roster member.
    path_keys: u64,
}

/// Which roster members must hold exactly the server's neighbor table.
#[derive(Clone, Copy)]
enum Tables {
    /// Every one.
    All,
    /// Those with no evicted neighbor on probation (a suspect the server
    /// still lists stays out of the member's copy until it answers).
    NoneOnProbation,
}

fn outcome<NET: Network + Sync + 'static>(
    rt: &ShardedGroupRuntime<NET>,
    tables: Tables,
) -> Outcome {
    let server = rt.server();
    let group_key = server.tree().group_key().expect("non-empty group");
    let (mut roster, mut gk, mut paths) = (Digest::new(), Digest::new(), Digest::new());
    gk.key(group_key);
    for (idx, m) in rt.group().members().iter().enumerate() {
        roster.id(&m.id);
        roster.word(m.host.0 as u64);
        roster.word(m.joined_at);
        for key in server.tree().user_path_keys(&m.id) {
            paths.key(key);
        }
        paths.word(u64::MAX);
        // Handles are hosts: the k-th join runs on `HostId(k)`.
        let handle = m.host.0;
        let agent = rt.agent(handle).expect("roster member was welcomed");
        assert_eq!(agent.interval(), server.interval(), "member {handle} lags");
        assert_eq!(agent.group_key(), Some(group_key), "member {handle} stale");
        // One table algorithm: the member holds the table the server's
        // `Group` computed, record for record.
        let local = rt.member_table(handle).expect("roster member has a table");
        if matches!(tables, Tables::All) || rt.member_suspects(handle) == 0 {
            assert!(
                local.iter_all().eq(rt.group().table(idx).iter_all()),
                "member {handle}'s table differs from the server's:\n{:?}\n{:?}",
                local.iter_all().collect::<Vec<_>>(),
                rt.group().table(idx).iter_all().collect::<Vec<_>>()
            );
        }
    }
    rt.check_consistency().expect("local tables K-consistent");
    Outcome {
        members: rt.group().len(),
        interval: server.interval(),
        epoch: rt.server_epoch(),
        roster: roster.0,
        group_key: gk.0,
        path_keys: paths.0,
    }
}

/// The snapshot's counter and histogram blocks (the span ring is an
/// execution-layout detail: it is merged from per-shard rings).
fn counters_and_histograms(snapshot: &MetricsSnapshot) -> String {
    let json = snapshot.to_json();
    let end = json.find("\"spans_dropped\"").expect("span block present");
    json[..end].to_string()
}

fn matrix_net() -> MatrixNetwork {
    let params = PlanetLabParams {
        continent_hosts: vec![120, 80, 50, 30],
        ..PlanetLabParams::default()
    };
    MatrixNetwork::synthetic_planetlab(&params, &mut seeded_rng(0x601D))
}

/// 256 joins, 40 voluntary leaves and 8 silent crashes over 12 rekey
/// intervals (ticks at 10 s … 120 s), then a quiet tail so every crash is
/// detected and repaired before the shutdown flush.
fn churn_session(loss: f64) -> ShardedGroupRuntime<MatrixNetwork> {
    let net = matrix_net();
    assert!(net.host_count() > 256);
    let group = GroupConfig::for_spec(&IdSpec::new(4, 8).unwrap())
        .k(3)
        .seed(0x601D5);
    let config = RuntimeConfig::builder().loss(loss).seed(0x601D).build();
    let mut rt = ShardedGroupRuntime::new(group, config, net);
    let mut trace: Vec<ChurnEvent> = (0..256u64)
        .map(|i| ChurnEvent::join(SEC + i * 61_003))
        .collect();
    for i in 0..40u64 {
        trace.push(ChurnEvent::leave(
            22 * SEC + i * 1_499_977,
            (i as usize * 37) % 240,
        ));
    }
    for i in 0..8u64 {
        trace.push(ChurnEvent::crash(
            31 * SEC + i * 5_000_011,
            240 + i as usize,
        ));
    }
    rt.run_trace(&trace);
    rt.finish(125 * SEC + 7);
    rt
}

/// 3 replicas on a grid: 64 joins, a member cell partitioned away and
/// healed, burst loss on the rekey overlay throughout, the primary killed
/// mid-interval and revived after a follower took over, three leaves.
fn failover_session() -> ShardedGroupRuntime<GridNetwork> {
    const MEMBERS: usize = 64;
    const REPLICAS: usize = 3;
    let net = GridNetwork::new(MEMBERS + 8, 1_000, 100);
    let group = GroupConfig::for_spec(&IdSpec::new(3, 8).unwrap())
        .k(2)
        .seed(0x601DF);
    let config = RuntimeConfig::builder()
        .rekey_period(2 * SEC)
        .nack_grace(SEC / 2)
        .heartbeat_period(3 * SEC)
        .retry_base(SEC / 4)
        .replicas(REPLICAS)
        .seed(0x601DFA)
        .build();
    // Every fifth member is cut off (from the replicas and everyone else)
    // from 7 s to 12 s; the primary is down from 19 s to 31 s.
    let cell: Vec<NodeId> = (0..MEMBERS)
        .step_by(5)
        .map(|h| member_node_with_replicas(h, REPLICAS))
        .collect();
    let plan = FaultPlan::new()
        .burst_loss(GilbertElliott::moderate())
        .partition(vec![cell], 7 * SEC, 12 * SEC)
        .outage(replica_node(0), 19 * SEC, 31 * SEC);
    let mut rt = ShardedGroupRuntime::new(group, config, net).with_faults(plan);
    let mut trace: Vec<ChurnEvent> = (0..MEMBERS as u64)
        .map(|i| ChurnEvent::join(100_003 + i * 20_011))
        .collect();
    trace.push(ChurnEvent::leave(15 * SEC + 3, 7));
    trace.push(ChurnEvent::leave(20 * SEC + 5, 22));
    trace.push(ChurnEvent::leave(36 * SEC + 7, 41));
    rt.run_trace(&trace);
    rt.finish(70 * SEC + 11);
    rt
}

#[test]
fn lossless_churn_session_matches_the_classic_executor() {
    let rt = churn_session(0.0);
    let got = outcome(&rt, Tables::All);
    let want = CHURN_OUTCOME;
    assert_eq!(got, want, "session outcome diverged: {got:#x?}");
    let snapshot = rt.snapshot();
    let got = counters_and_histograms(&snapshot);
    assert_eq!(got, LOSSLESS_COUNTERS, "counters diverged:\n{got}");
}

#[test]
fn lossy_churn_session_matches_the_classic_executor() {
    let rt = churn_session(0.02);
    let got = outcome(&rt, Tables::All);
    let want = CHURN_OUTCOME;
    assert_eq!(got, want, "session outcome diverged: {got:#x?}");
    let snapshot = rt.snapshot();
    assert!(snapshot.copies_lost > 0 && snapshot.nacks > 0);
}

#[test]
fn replicated_fault_plan_session_matches_the_classic_executor() {
    let rt = failover_session();
    let got = outcome(&rt, Tables::NoneOnProbation);
    let want = FAILOVER_OUTCOME;
    assert_eq!(got, want, "session outcome diverged: {got:#x?}");
    let snapshot = rt.snapshot();
    assert_eq!(snapshot.promotions, 1);
    assert!(snapshot.partition_cuts > 0 && snapshot.fault_loss_drops > 0);
    assert_eq!(snapshot.restarts, 1);
    let got = counters_and_histograms(&snapshot);
    assert_eq!(got, FAILOVER_COUNTERS, "counters diverged:\n{got}");
}

/// A `bootstrapped` run shaped like the benchmark's `sim_mega` workload:
/// spec (5,16), K = 1, 2 shards, 2 % copy loss, heartbeats off, four
/// `leave_at` in each of six intervals, no fault plan, one replica.
/// Returns the FNV-1a digest of the snapshot JSON up to the span block.
fn mega_shaped_run(members: usize) -> (MetricsSnapshot, u64) {
    const PERIOD: u64 = 10 * SEC;
    let net = GridNetwork::with_defaults(members + 1);
    let window = net.min_one_way();
    let group = GroupConfig::for_spec(&IdSpec::new(5, 16).unwrap())
        .k(1)
        .seed(7);
    let config = RuntimeConfig::builder()
        .rekey_period(PERIOD)
        .nack_grace(2 * SEC)
        .heartbeat_period(1 << 40)
        .retry_base(PERIOD / 8)
        .loss(0.02)
        .seed(7)
        .build();
    let mut rt = ShardedGroupRuntime::bootstrapped(group, config, net, members, 2, window)
        .expect("members fit the 16^5 ID space");
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    // The whole trace is scheduled up front, as the benchmark does.
    for slot in 0..24u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let stratum = members / 24;
        let handle = slot as usize * stratum + (state >> 40) as usize % stratum;
        let offset = SEC + (state >> 20) % (PERIOD - 2 * SEC);
        rt.leave_at(slot / 4 * PERIOD + offset, handle);
    }
    for interval in 1..=6u64 {
        rt.run_until(interval * PERIOD + PERIOD / 2);
    }
    rt.finish(6 * PERIOD + PERIOD / 2);
    rt.check_consistency().expect("tables K-consistent");
    for (idx, m) in rt.group().members().iter().enumerate() {
        let local = rt.member_table(m.host.0).expect("survivor has a table");
        assert!(
            local.iter_all().eq(rt.group().table(idx).iter_all()),
            "member {}'s table differs from the server's",
            m.host.0
        );
    }
    let snapshot = rt.snapshot();
    let mut d = Digest::new();
    for b in counters_and_histograms(&snapshot).bytes() {
        d.word(u64::from(b));
    }
    (snapshot, d.0)
}

/// The `bootstrapped` path is what the benchmark measures: its snapshot
/// (counters and histograms, not the span ring) is pinned byte for byte.
/// Thumbnail size in the default test run…
#[test]
fn bootstrapped_run_renders_the_parents_snapshot() {
    let (snapshot, digest) = mega_shaped_run(2_048);
    assert_eq!(snapshot.departures, 24);
    assert!(snapshot.copies_lost > 0 && snapshot.nacks > 0);
    assert_eq!(
        digest,
        0x1187_d8f2_6ce9_d055,
        "snapshot JSON moved ({digest:#018x}):\n{}",
        counters_and_histograms(&snapshot)
    );
}

/// …and at the benchmark's own 16 384 members (`scripts/ci.sh` runs it in
/// release).
#[test]
#[ignore = "soak-sized: 16k members x 6 intervals; ci.sh runs it in release"]
fn sim_mega_shaped_run_renders_the_parents_snapshot() {
    let (snapshot, digest) = mega_shaped_run(16_384);
    assert_eq!(snapshot.departures, 24);
    assert_eq!(
        digest,
        0x561d_8ecc_a9a3_7c8a,
        "snapshot JSON moved ({digest:#018x}):\n{}",
        counters_and_histograms(&snapshot)
    );
}

/// Both churn sessions end in the same place: loss only thins `Forward`
/// copies, and NACK recovery re-sends existing key material.
const CHURN_OUTCOME: Outcome = Outcome {
    members: 208,
    interval: 12,
    epoch: 0,
    roster: 0xf398_4c27_ff0c_cd23,
    group_key: 0x0d95_b6b3_5327_ecd0,
    path_keys: 0x75fc_1380_3094_78f5,
};

const FAILOVER_OUTCOME: Outcome = Outcome {
    members: 61,
    interval: 33,
    epoch: 1,
    roster: 0x7058_60f2_c556_50db,
    group_key: 0xebe8_468d_0359_42fb,
    path_keys: 0x6a0d_eff0_2cf8_999b,
};

const LOSSLESS_COUNTERS: &str = r#"{
  "counters": {
    "intervals": 12,
    "members": 208,
    "joins": 256,
    "departures": 48,
    "failures_detected": 8,
    "forward_copies": 2584,
    "copies_lost": 0,
    "dead_letters": 444,
    "suppressed": 0,
    "nacks": 8,
    "recovery_encryptions": 26,
    "pings": 82896,
    "evictions": 14,
    "retransmissions": 0,
    "max_retry_attempts": 1,
    "resyncs": 0,
    "rejoins": 0,
    "rehabilitations": 0,
    "restarts": 0,
    "checkpoints": 12,
    "delivered": 234142,
    "welcomes": 256,
    "leave_acks": 40,
    "tree_encryptions": 1011,
    "tombstone_hits": 0,
    "partition_cuts": 0,
    "fault_loss_drops": 0,
    "elections": 0,
    "promotions": 0,
    "lost_mutations": 0,
    "repl_lag_peak": 0,
    "peak_queue_depth": 1410
  },
  "histograms": {
    "apply_delay_us": {
      "count": 2319,
      "sum": 259191187,
      "min": 8441,
      "max": 399184,
      "mean": 111768.52,
      "p50": 100739,
      "p95": 179239,
      "p99": 228406
    },
    "batch_size": {
      "count": 12,
      "sum": 304,
      "min": 0,
      "max": 131,
      "mean": 25.33,
      "p50": 9,
      "p95": 131,
      "p99": 131
    },
    "split_payload": {
      "count": 2570,
      "sum": 6110,
      "min": 0,
      "max": 129,
      "mean": 2.38,
      "p50": 2,
      "p95": 5,
      "p99": 18
    },
    "forward_fanout": {
      "count": 2582,
      "sum": 2584,
      "min": 0,
      "max": 21,
      "mean": 1.00,
      "p50": 1,
      "p95": 8,
      "p99": 13
    },
    "recovery_size": {
      "count": 216,
      "sum": 26,
      "min": 0,
      "max": 4,
      "mean": 0.12,
      "p50": 1,
      "p95": 1,
      "p99": 4
    }
  },
  "#;

const FAILOVER_COUNTERS: &str = r#"{
  "counters": {
    "intervals": 33,
    "members": 61,
    "joins": 77,
    "departures": 16,
    "failures_detected": 14,
    "forward_copies": 1888,
    "copies_lost": 910,
    "dead_letters": 0,
    "suppressed": 216,
    "nacks": 223,
    "recovery_encryptions": 32,
    "pings": 25772,
    "evictions": 216,
    "retransmissions": 232,
    "max_retry_attempts": 5,
    "resyncs": 62,
    "rejoins": 13,
    "rehabilitations": 194,
    "restarts": 1,
    "checkpoints": 33,
    "delivered": 70304,
    "welcomes": 77,
    "leave_acks": 3,
    "tree_encryptions": 237,
    "tombstone_hits": 10,
    "partition_cuts": 803,
    "fault_loss_drops": 107,
    "elections": 2,
    "promotions": 1,
    "lost_mutations": 0,
    "repl_lag_peak": 7,
    "peak_queue_depth": 370
  },
  "histograms": {
    "apply_delay_us": {
      "count": 1913,
      "sum": 62925240,
      "min": 1100,
      "max": 924720,
      "mean": 32893.49,
      "p50": 3863,
      "p95": 105668,
      "p99": 521577
    },
    "batch_size": {
      "count": 33,
      "sum": 93,
      "min": 0,
      "max": 64,
      "mean": 2.82,
      "p50": 1,
      "p95": 14,
      "p99": 64
    },
    "split_payload": {
      "count": 1771,
      "sum": 1057,
      "min": 0,
      "max": 51,
      "mean": 0.60,
      "p50": 1,
      "p95": 4,
      "p99": 9
    },
    "forward_fanout": {
      "count": 1804,
      "sum": 1888,
      "min": 0,
      "max": 12,
      "mean": 1.05,
      "p50": 1,
      "p95": 7,
      "p99": 12
    },
    "recovery_size": {
      "count": 278,
      "sum": 32,
      "min": 0,
      "max": 3,
      "mean": 0.12,
      "p50": 1,
      "p95": 2,
      "p99": 3
    }
  },
  "#;
