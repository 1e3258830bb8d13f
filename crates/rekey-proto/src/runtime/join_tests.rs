#![cfg(test)]
//! The §3.1 join as `RtMsg` traffic on the simulated driver: the joiner
//! queries members, pings the users step 3 reads, and sends the digits it
//! chose; the key server completes them. Sequential and concurrent joins,
//! ID quality, the tables the server pushes, message cost, and joins whose
//! queried members crashed or sit behind a partition.

use rand::{Rng, SeedableRng};
use rekey_id::IdSpec;
use rekey_net::{HostId, MatrixNetwork, Micros, Network, PlanetLabParams};
use rekey_sim::{FaultPlan, NodeId, SimTime};
use rekey_table::oracle::build_all_tables;
use rekey_table::{check_consistency, Member, NeighborTable, PrimaryPolicy};

use super::{ChurnEvent, MemberStats, RuntimeConfig, ShardedGroupRuntime};
use crate::{AssignParams, GroupConfig};

const MS: Micros = 1_000;
const SEC: SimTime = 1_000_000;

/// What a join session left behind, survivors only, in host order.
struct JoinRun {
    members: Vec<Member>,
    /// Each survivor's table: the last one the key server pushed it.
    tables: Vec<NeighborTable>,
    /// Each survivor's join statistics.
    stats: Vec<MemberStats>,
}

/// Rekeying every 10 s and no heartbeats, so what moves is the joins.
fn quiet() -> RuntimeConfig {
    RuntimeConfig::builder().heartbeat_period(1 << 40).build()
}

/// Runs `rt` through joins at `start_times` (the `i`-th earliest takes
/// host `i`) and each `(host, at)` of `leaves` until `tail` past the last
/// request, and collects the survivors.
fn drive(
    mut rt: ShardedGroupRuntime<MatrixNetwork>,
    start_times: &[SimTime],
    leaves: &[(usize, SimTime)],
    tail: SimTime,
) -> JoinRun {
    let mut trace: Vec<ChurnEvent> = start_times.iter().map(|&at| ChurnEvent::join(at)).collect();
    trace.extend(leaves.iter().map(|&(host, at)| ChurnEvent::leave(at, host)));
    let last = trace.iter().map(|e| e.at).max().unwrap_or(0);
    rt.run_trace(&trace);
    rt.finish(last + tail);
    let mut run = JoinRun {
        members: Vec::new(),
        tables: Vec::new(),
        stats: Vec::new(),
    };
    for handle in 0..rt.member_count() {
        let Some(table) = rt.member_table(handle) else {
            continue;
        };
        let record = rt.group().members().iter().find(|m| m.host.0 == handle);
        run.members
            .push(*record.expect("a table holder is a member"));
        run.tables.push(table.clone());
        run.stats.push(rt.member_stats(handle));
    }
    run
}

/// A join session on `net` with the server on its last host.
fn session(
    spec: &IdSpec,
    params: AssignParams,
    net: MatrixNetwork,
    start_times: &[SimTime],
    leaves: &[(usize, SimTime)],
) -> JoinRun {
    let group = GroupConfig::for_spec(spec).k(2).assign(params);
    let rt = ShardedGroupRuntime::new(group, quiet(), net);
    drive(rt, start_times, leaves, 300 * SEC)
}

fn planetlab(seed: u64) -> MatrixNetwork {
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng)
}

/// `joins` joins `spacing` µs apart, each late by up to `jitter` µs, on the
/// PlanetLab substrate of `seed` with `(D, B) = (4, 16)`.
fn run(seed: u64, joins: usize, spacing: u64, jitter: u64) -> (MatrixNetwork, JoinRun) {
    let spec = IdSpec::new(4, 16).unwrap();
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed ^ 0xD157);
    let times: Vec<u64> = (0..joins)
        .map(|i| i as u64 * spacing + rng.gen_range(0..=jitter))
        .collect();
    let out = session(
        &spec,
        AssignParams::for_depth(4),
        planetlab(seed),
        &times,
        &[],
    );
    (planetlab(seed), out)
}

fn assert_unique(members: &[Member]) {
    let mut ids: Vec<_> = members.iter().map(|m| m.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), members.len(), "IDs are unique");
}

/// No survivor's table lists a member that is gone.
fn assert_no_ghosts(out: &JoinRun, at: &str) {
    let ids: Vec<_> = out.members.iter().map(|m| m.id).collect();
    for (m, t) in out.members.iter().zip(&out.tables) {
        for r in t.iter_all() {
            assert!(
                ids.contains(&r.member.id),
                "{at}: {} holds ghost record of departed {}",
                m.id,
                r.member.id
            );
        }
    }
}

/// A table's records as (ID, RTT) pairs.
fn records(t: &NeighborTable) -> Vec<(rekey_id::UserId, Micros)> {
    t.iter_all().map(|r| (r.member.id, r.rtt)).collect()
}

/// Every survivor's table equals the one built from global knowledge over
/// the survivors, record for record.
fn assert_global_knowledge_tables(spec: &IdSpec, net: &MatrixNetwork, out: &JoinRun, at: &str) {
    let mut survivors = out.members.clone();
    survivors.sort_by_key(|m| m.joined_at);
    let oracle = build_all_tables(spec, &survivors, net, 2, PrimaryPolicy::SmallestRtt);
    for (m, table) in out.members.iter().zip(&out.tables) {
        let i = survivors.iter().position(|s| s.id == m.id).unwrap();
        assert_eq!(
            records(table),
            records(&oracle[i]),
            "{at}: table of {}",
            m.id
        );
    }
}

/// Hosts 0 and 1 are 31 ms apart gateway to gateway, each 20 ms from
/// the server (host 2); access links are 1, 2 and 3 ms.
fn three_hosts() -> MatrixNetwork {
    let g = vec![
        vec![0, 31 * MS, 20 * MS],
        vec![31 * MS, 0, 20 * MS],
        vec![20 * MS, 20 * MS, 0],
    ];
    MatrixNetwork::from_matrix(g, vec![MS, 2 * MS, 3 * MS])
}

/// Six hosts 10 ms apart gateway to gateway, with 1 ms access links;
/// the key server is host 5.
fn six_uniform_hosts() -> MatrixNetwork {
    let g = (0..6)
        .map(|a| (0..6).map(|b| if a == b { 0 } else { 10 * MS }).collect())
        .collect();
    MatrixNetwork::from_matrix(g, vec![MS; 6])
}

/// Five joins 1 s apart into a (2, 4) group with `P = 1`.
fn five_joins() -> (IdSpec, AssignParams, Vec<SimTime>) {
    let spec = IdSpec::new(2, 4).unwrap();
    let params = AssignParams {
        p: 1,
        ..AssignParams::for_depth(2)
    };
    (spec, params, (0..5).map(|i| i * SEC).collect())
}

/// Step 2 measures the first `P` users of each subtree and nobody else.
/// Every member shares digit 0 until the fifth join, so each joiner
/// collects all of them in one bucket, yet with `P = 1` pings only one.
#[test]
fn step_two_measures_at_most_p_users_per_subtree() {
    let (spec, params, times) = five_joins();
    let run = session(&spec, params, six_uniform_hosts(), &times, &[]);
    let ids: Vec<Vec<u16>> = run.members.iter().map(|m| m.id.digits().to_vec()).collect();
    assert_eq!(ids, [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0]]);
    let pings: Vec<u32> = run.stats.iter().map(|s| s.join_pings).collect();
    assert_eq!(pings, [0, 1, 1, 1, 1]);
}

/// A leave asked while the node's own join is in flight is kept: node 4
/// asks 10 ms after its join request, leaves once its ID arrives, and
/// the survivors' tables are those built from global knowledge.
#[test]
fn a_leave_asked_during_the_nodes_own_join_is_kept() {
    let net = six_uniform_hosts();
    let (spec, params, times) = five_joins();
    let leaves = [(4, times[4] + 10 * MS)];
    let run = session(&spec, params, six_uniform_hosts(), &times, &leaves);
    let hosts: Vec<usize> = run.members.iter().map(|m| m.host.0).collect();
    assert_eq!(hosts, [0, 1, 2, 3]);
    let oracle = build_all_tables(&spec, &run.members, &net, 2, PrimaryPolicy::SmallestRtt);
    for (table, want) in run.tables.iter().zip(&oracle) {
        assert_eq!(records(table), records(want), "table of {}", table.owner());
    }
}

/// The joiner's gateway RTT to the group's one member is 31 ms: under
/// the first threshold (150 ms), over the second (30 ms). So it probes
/// one digit and shares exactly that digit with the member. Counting
/// the server's 3 ms access link into both ends' estimates would read
/// 25 ms and take a second digit.
#[test]
fn a_joiner_just_over_a_threshold_stops_probing() {
    let spec = IdSpec::new(3, 4).unwrap();
    let params = AssignParams::for_depth(3);
    let run = session(&spec, params, three_hosts(), &[0, SEC], &[]);
    assert_eq!(run.members.len(), 2);
    assert_eq!(run.stats[1].digits_probed, 1);
    assert_eq!(run.members[1].id.common_prefix_len(&run.members[0].id), 1);
}

/// Hosts A = 0 and B = 1 are 200 ms apart gateway to gateway; the
/// joiner J = 2 is 100 ms from A and 90 ms from B, and everyone is
/// 20 ms from the server (host 3). Access links are 1 ms for A and J,
/// 20 ms for B. J learns B's record from A and, with `P = 1`, never
/// queries B, so only B's pong tells J that B's access link is 20 ms:
/// J estimates 90 ms to B and 100 ms to A and joins B's subtree.
/// Taking A's access link for B's would read 109 ms and pick A.
#[test]
fn a_probed_gateway_rtt_subtracts_the_probed_hosts_access_link() {
    let g = vec![
        vec![0, 200 * MS, 100 * MS, 20 * MS],
        vec![200 * MS, 0, 90 * MS, 20 * MS],
        vec![100 * MS, 90 * MS, 0, 20 * MS],
        vec![20 * MS, 20 * MS, 20 * MS, 0],
    ];
    let net = MatrixNetwork::from_matrix(g, vec![MS, 20 * MS, MS, 3 * MS]);
    let spec = IdSpec::new(3, 4).unwrap();
    let params = AssignParams {
        p: 1,
        ..AssignParams::for_depth(3)
    };
    let run = session(&spec, params, net, &[0, SEC, 2 * SEC], &[]);
    let [a, b, j] = [0, 1, 2].map(|i| run.members[i].id);
    assert_eq!((a.digits(), b.digits()), (&[0, 0, 0][..], &[1, 0, 0][..]));
    assert_eq!(j.digit(0), b.digit(0), "J joins B's subtree: {j}");
}

/// Sequential joins (well separated in time): everyone completes, IDs are
/// unique, and the constructed neighbor tables are K-consistent. Thirty
/// joins 10 s apart, and 64 joins 2 s apart.
#[test]
fn sequential_joins_build_consistent_tables() {
    let spec = IdSpec::new(4, 16).unwrap();
    for (joins, spacing) in [(30, 10 * SEC), (64, 2 * SEC)] {
        let (_, out) = run(1, joins, spacing, 0);
        assert_eq!(out.members.len(), joins, "every join completes");
        assert_unique(&out.members);
        check_consistency(&spec, &out.members, &out.tables, 1).expect("tables are 1-consistent");
    }
}

/// Concurrent joins (overlapping in time): completion and uniqueness still
/// hold; tables are 1-consistent because the server pushes every table a
/// join changes.
#[test]
fn concurrent_joins_still_converge() {
    let (_, out) = run(2, 30, 3_000, 5_000);
    assert_eq!(out.members.len(), 30);
    assert_unique(&out.members);
    let spec = IdSpec::new(4, 16).unwrap();
    check_consistency(&spec, &out.members, &out.tables, 1)
        .expect("1-consistency under concurrent joins");
}

/// The protocol is topology-aware: hosts with a small gateway RTT end up
/// sharing longer ID prefixes than far-apart hosts, on average.
#[test]
fn nearby_hosts_share_longer_prefixes() {
    let (network, out) = run(3, 60, 5 * SEC, 0);
    // Classify pairs relative to the observed RTT distribution (bottom vs
    // top quartile) so the test does not depend on absolute latencies of
    // one particular synthetic topology draw.
    let mut pairs = Vec::new();
    for a in 0..out.members.len() {
        for b in (a + 1)..out.members.len() {
            let (ma, mb) = (&out.members[a], &out.members[b]);
            let rtt = network.gateway_rtt(ma.host, mb.host);
            let shared = ma.id.common_prefix_len(&mb.id) as f64;
            pairs.push((rtt, shared));
        }
    }
    pairs.sort_by_key(|&(rtt, _)| rtt);
    let quarter = pairs.len() / 4;
    let near: Vec<f64> = pairs[..quarter].iter().map(|&(_, s)| s).collect();
    let far: Vec<f64> = pairs[pairs.len() - quarter..]
        .iter()
        .map(|&(_, s)| s)
        .collect();
    assert!(
        !near.is_empty() && !far.is_empty(),
        "both classes populated"
    );
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&near) > avg(&far) + 0.25,
        "near pairs must share clearly longer prefixes: {:.2} vs {:.2}",
        avg(&near),
        avg(&far)
    );
}

/// Join message cost stays sub-linear in the group size (the §3.1.4
/// O(P · D · N^{1/D}) analysis): quadrupling N must not quadruple the mean
/// per-join message count of the *last* joins.
#[test]
fn join_cost_scales_sublinearly() {
    let cost = |n: usize| -> f64 {
        let (_, out) = run(100 + n as u64, n, 2 * SEC, 0);
        let tail = &out.stats[n - n / 4..];
        tail.iter()
            .map(|s| (s.join_queries + s.join_pings) as f64)
            .sum::<f64>()
            / tail.len() as f64
    };
    let c40 = cost(40);
    let c160 = cost(160);
    assert!(
        c160 < c40 * 4.0,
        "per-join messages must grow sublinearly: {c40:.1} → {c160:.1}"
    );
}

/// First joiner gets the all-zero ID, as in §3.1.
#[test]
fn first_join_gets_zero_id() {
    let (_, out) = run(4, 1, 1, 0);
    assert_eq!(out.members[0].id.digits(), &[0, 0, 0, 0]);
    assert_eq!(out.stats[0].join_queries, 0, "first join probes nobody");
}

/// Elapsed join time is dominated by probing round trips and stays within
/// a small multiple of the network diameter.
#[test]
fn join_latency_is_bounded() {
    let (network, out) = run(5, 20, 5 * SEC, 0);
    let mut max_rtt = 0;
    for a in 0..20 {
        for b in 0..20 {
            max_rtt = max_rtt.max(network.rtt(HostId(a), HostId(b)));
        }
    }
    for s in &out.stats[1..] {
        assert!(s.join_elapsed > 0);
        // Each join is a handful of sequential RTT-bounded phases; 40
        // diameters is a generous envelope that still catches pathologies.
        assert!(
            s.join_elapsed < 40 * max_rtt,
            "join took {} µs with diameter {} µs",
            s.join_elapsed,
            max_rtt
        );
    }
}

/// Leaves: after a batch of joins, some members leave; the survivors'
/// tables must drop the departed records and stay 1-consistent, as
/// repaired by the server's `Group` and pushed to their owners.
#[test]
fn leaves_repair_survivor_tables() {
    let spec = IdSpec::new(4, 16).unwrap();
    let joins = 30usize;
    let times: Vec<u64> = (0..joins).map(|i| i as u64 * 5 * SEC).collect();
    // Nodes 3, 9, 21 leave well after every join has completed.
    let leaves: Vec<(usize, u64)> = [3usize, 9, 21]
        .iter()
        .map(|&n| (n, 400 * SEC + n as u64))
        .collect();
    let params = AssignParams::for_depth(4);
    let out = session(&spec, params, planetlab(7), &times, &leaves);
    assert_eq!(out.members.len(), joins - leaves.len(), "survivors only");
    assert_unique(&out.members);
    check_consistency(&spec, &out.members, &out.tables, 1).expect("1-consistency after leaves");
    assert_no_ghosts(&out, "leaves");
}

/// 24 members join sequentially, the last join starts at 200 s.
fn late_join() -> (IdSpec, Vec<SimTime>) {
    let mut times: Vec<u64> = (0..24).map(|i| i * 5 * SEC).collect();
    times.push(200 * SEC);
    (IdSpec::new(4, 16).unwrap(), times)
}

/// A member that departs while another member's join is in flight leaves
/// no ghost record in any table, whatever the overlap: the server's
/// `Group` builds every table. A departed member no longer answers, so a
/// joiner that queried or pinged it waits out the retry cap and probes on.
#[test]
fn leave_during_inflight_join_leaves_no_ghost_records() {
    let (spec, times) = late_join();
    let late_start = times[24];
    // Sweep the overlap: departures land from 10 ms to 2 s into the
    // in-flight join, covering every protocol phase of the joiner.
    for offset in [10_000u64, 50_000, 100_000, 500_000, 1_000_000, 2_000_000] {
        let leaves = [(5, late_start + offset), (17, late_start + offset / 2)];
        let params = AssignParams::for_depth(4);
        let out = session(&spec, params, planetlab(11), &times, &leaves);
        assert_eq!(out.members.len(), 25 - 2, "offset {offset}: survivors only");
        assert_no_ghosts(&out, &format!("offset {offset}"));
        check_consistency(&spec, &out.members, &out.tables, 1)
            .unwrap_or_else(|v| panic!("offset {offset}: {v}"));
    }
}

/// The tables a session leaves behind are §2.2's: every survivor's table
/// equals the one built from global knowledge over the survivors, record
/// for record (ID and RTT), so each entry holds the `K` closest members of
/// its subtree sorted by RTT, and the tables are K-consistent at `K = 2`.
/// Checked on a sequential session, a concurrent one and one whose leaves
/// race the last join.
#[test]
fn session_tables_are_the_global_knowledge_tables() {
    let (spec, times) = late_join();
    let leaves = [(9, 150 * SEC), (17, 200_050_000), (5, 200_100_000)];
    let params = AssignParams::for_depth(4);
    let with_leaves = session(&spec, params, planetlab(11), &times, &leaves);
    let sessions = [
        run(3, 25, 5 * SEC, 0),
        run(7, 25, 3_000, 5_000),
        (planetlab(11), with_leaves),
    ];
    for (i, (network, out)) in sessions.iter().enumerate() {
        assert_global_knowledge_tables(&spec, network, out, &format!("session {i}"));
        check_consistency(&spec, &out.members, &out.tables, 2)
            .unwrap_or_else(|v| panic!("session {i}: {v}"));
    }
}

/// A join whose seed has crashed, and one whose queried members sit
/// behind a partition for the whole probe, both end admitted once their
/// silent queries and pings run through the retry cap, and every table
/// is K-consistent and §2.2's.
#[test]
fn a_join_finishes_past_a_crashed_seed_and_a_partition() {
    let spec = IdSpec::new(4, 16).unwrap();
    let group = || GroupConfig::for_spec(&spec).k(2);
    let config = RuntimeConfig::builder()
        .heartbeat_period(1 << 40)
        .retry_base(100 * MS)
        .build();
    let times: Vec<SimTime> = (0..12).map(|i| i * SEC).collect();

    // Host 12's seed is member 12 % 12 = 0, which crashes first. The
    // server only learns of it from heartbeats, which are off.
    let mut rt = ShardedGroupRuntime::new(group(), config, planetlab(21));
    let mut trace: Vec<ChurnEvent> = times.iter().map(|&at| ChurnEvent::join(at)).collect();
    trace.push(ChurnEvent::crash(15 * SEC, 0));
    trace.push(ChurnEvent::join(16 * SEC));
    rt.run_trace(&trace);
    rt.finish(100 * SEC);
    assert!(rt.group().members().iter().any(|m| m.host == HostId(12)));
    let stats = rt.member_stats(12);
    assert!(stats.retransmissions > 0, "the silent seed was asked again");
    assert!(stats.join_elapsed >= 63 * 100 * MS, "{stats:?}");
    let members = rt.group().members();
    let live = members.iter().filter(|m| m.host != HostId(0));
    let tables = live.map(|m| rt.member_table(m.host.0).unwrap());
    check_consistency(&spec, members, tables, 2).expect("K-consistent past a crashed seed");

    // Host 12 joins while every other member but its seed, member 0, sits
    // behind a partition: the seed answers, the rest stay silent.
    let cut: Vec<NodeId> = (2..=12).map(NodeId).collect();
    let plan = FaultPlan::new().partition(vec![cut], 15 * SEC, 40 * SEC);
    let mut rt = ShardedGroupRuntime::new(group(), config, planetlab(21)).with_faults(plan);
    let mut trace: Vec<ChurnEvent> = times.iter().map(|&at| ChurnEvent::join(at)).collect();
    trace.push(ChurnEvent::join(16 * SEC));
    rt.run_trace(&trace);
    rt.finish(100 * SEC);
    let stats = rt.member_stats(12);
    assert!(rt.group().members().iter().any(|m| m.host == HostId(12)));
    assert!(
        stats.retransmissions > 0,
        "the silent members were asked again"
    );
    // The seed arrives just after 16 s; the partition heals at 40 s.
    assert!(
        stats.join_elapsed < 24 * SEC,
        "admitted before the partition heals: {stats:?}"
    );
    rt.check_consistency()
        .expect("K-consistent past a partition");
    let out = JoinRun {
        members: rt.group().members().to_vec(),
        tables: (rt.group().members().iter())
            .map(|m| rt.member_table(m.host.0).unwrap().clone())
            .collect(),
        stats: Vec::new(),
    };
    assert_global_knowledge_tables(&spec, &planetlab(21), &out, "partition");
}

/// One member's join statistics as pinned below: queries, pings, probed
/// digits and µs from its `JoinSeed` to its `JoinAccepted`.
type StatsPin = (u32, u32, u32, SimTime);

fn pins(run: &JoinRun) -> Vec<StatsPin> {
    (run.stats.iter())
        .map(|s| {
            (
                s.join_queries,
                s.join_pings,
                s.digits_probed,
                s.join_elapsed,
            )
        })
        .collect()
}

/// The statistics sums of a session: queries, pings, probed digits, µs.
fn sums(run: &JoinRun) -> StatsPin {
    pins(run).iter().fold((0, 0, 0, 0), |(q, p, d, e), s| {
        (q + s.0, p + s.1, d + s.2, e + s.3)
    })
}

/// The probes of the sessions `tests/determinism.rs` pins the rosters
/// of: ten joins on the small PlanetLab substrate 1.5 ms and 1 s apart,
/// thirty sequential joins on the 227-host one, and a session whose
/// leaves race the last join. Two identical runs agree, and the
/// statistics are the recorded ones.
#[test]
fn join_statistics_are_deterministic() {
    let small = |spacing: u64| {
        let mut rng = rekey_sim::seeded_rng(1234);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let spec = IdSpec::new(3, 8).unwrap();
        let times: Vec<u64> = (0..10).map(|i| i * spacing).collect();
        pins(&session(
            &spec,
            AssignParams::for_depth(3),
            net,
            &times,
            &[],
        ))
    };
    for (spacing, want) in [(1_500, CONCURRENT_JOINS), (SEC, SEQUENTIAL_JOINS)] {
        let got = small(spacing);
        assert_eq!(got, small(spacing));
        assert_eq!(got, want, "spacing {spacing} µs");
    }

    let spec = IdSpec::new(4, 16).unwrap();
    let planetlab = |seed| {
        let mut rng = rekey_sim::seeded_rng(seed);
        MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng)
    };
    let times: Vec<u64> = (0..30).map(|i| i * 10 * SEC).collect();
    let run = session(&spec, AssignParams::for_depth(4), planetlab(1), &times, &[]);
    assert_eq!(sums(&run), (547, 435, 69, 18_428_780));

    let (_, times) = late_join();
    let leaves = [(9, 150 * SEC), (17, 200_050_000), (5, 200_100_000)];
    let run = session(
        &spec,
        AssignParams::for_depth(4),
        planetlab(11),
        &times,
        &leaves,
    );
    assert_eq!(sums(&run), (338, 268, 45, 201_730_064));
}

const CONCURRENT_JOINS: &[StatsPin] = &[
    (2, 1, 2, 155_720),
    (2, 1, 2, 151_542),
    (0, 0, 0, 0),
    (2, 1, 2, 161_466),
    (8, 7, 2, 614_690),
    (2, 1, 1, 215_918),
    (2, 1, 1, 246_998),
    (2, 1, 2, 219_270),
    (17, 9, 1, 1_037_332),
    (2, 1, 2, 199_908),
];

const SEQUENTIAL_JOINS: &[StatsPin] = &[
    (0, 0, 0, 0),
    (2, 1, 2, 148_854),
    (4, 2, 2, 131_052),
    (6, 3, 2, 170_206),
    (8, 4, 1, 551_940),
    (10, 5, 2, 408_004),
    (12, 6, 2, 354_290),
    (14, 7, 2, 438_486),
    (16, 8, 1, 932_262),
    (18, 9, 1, 641_090),
];
