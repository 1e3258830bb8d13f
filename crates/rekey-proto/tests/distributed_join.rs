//! Tests of the message-level distributed join protocol (§3.1–§3.2 on the
//! event simulator): sequential and concurrent joins, ID quality,
//! consistency of the constructed tables, and message-cost behaviour.

use rand::{Rng, SeedableRng};
use rekey_id::IdSpec;
use rekey_net::{MatrixNetwork, Network, PlanetLabParams};
use rekey_proto::AssignParams;
use rekey_proto::{run_distributed_joins, run_distributed_session, DistributedJoinRun};
use rekey_table::oracle::build_all_tables;
use rekey_table::{check_consistency, NeighborTable, PrimaryPolicy};

fn net(seed: u64) -> MatrixNetwork {
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng)
}

fn run(seed: u64, joins: usize, spacing: u64, jitter: u64) -> (MatrixNetwork, DistributedJoinRun) {
    let network = net(seed);
    let spec = IdSpec::new(4, 16).unwrap();
    let params = AssignParams::for_depth(4);
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed ^ 0xD157);
    let times: Vec<u64> = (0..joins)
        .map(|i| i as u64 * spacing + rng.gen_range(0..=jitter))
        .collect();
    let outcome = run_distributed_joins(&spec, &params, 2, &network, joins, &times);
    (network, outcome)
}

/// Sequential joins (well separated in time): everyone completes, IDs are
/// unique, and the constructed neighbor tables are K-consistent.
#[test]
fn sequential_joins_build_consistent_tables() {
    let (_, out) = run(1, 30, 10_000_000, 0); // 10 s apart: strictly sequential
    assert_eq!(out.members.len(), 30, "every join completes");
    let mut ids: Vec<_> = out.members.iter().map(|m| m.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 30, "IDs are unique");
    let spec = IdSpec::new(4, 16).unwrap();
    check_consistency(&spec, &out.members, &out.tables, 1)
        .expect("distributed tables are 1-consistent");
}

/// Concurrent joins (overlapping in time): completion and uniqueness still
/// hold; tables are 1-consistent because the server pushes every table a
/// join changes.
#[test]
fn concurrent_joins_still_converge() {
    let (_, out) = run(2, 30, 3_000, 5_000); // heavy overlap
    assert_eq!(out.members.len(), 30);
    let mut ids: Vec<_> = out.members.iter().map(|m| m.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 30);
    let spec = IdSpec::new(4, 16).unwrap();
    check_consistency(&spec, &out.members, &out.tables, 1)
        .expect("1-consistency under concurrent joins");
}

/// The protocol is topology-aware: hosts with a small gateway RTT end up
/// sharing longer ID prefixes than far-apart hosts, on average.
#[test]
fn nearby_hosts_share_longer_prefixes() {
    let (network, out) = run(3, 60, 5_000_000, 0);
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
        let (_, out) = run(100 + n as u64, n, 2_000_000, 0);
        let tail = &out.stats[n - n / 4..];
        tail.iter()
            .map(|s| (s.queries + s.pings) as f64)
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
    assert_eq!(out.stats[0].queries, 0, "first join probes nobody");
}

/// Elapsed join time is dominated by probing round trips and stays within
/// a small multiple of the network diameter.
#[test]
fn join_latency_is_bounded() {
    let (network, out) = run(5, 20, 5_000_000, 0);
    let mut max_rtt = 0;
    for a in 0..20 {
        for b in 0..20 {
            max_rtt = max_rtt.max(network.rtt(rekey_net::HostId(a), rekey_net::HostId(b)));
        }
    }
    for s in &out.stats[1..] {
        assert!(s.elapsed > 0);
        // Each join is a handful of sequential RTT-bounded phases; 40
        // diameters is a generous envelope that still catches pathologies.
        assert!(
            s.elapsed < 40 * max_rtt,
            "join took {} µs with diameter {} µs",
            s.elapsed,
            max_rtt
        );
    }
}

/// Leaves (and failure notifications, which share the repair path): after
/// a batch of joins, some members leave; the survivors' tables must drop
/// the departed records and stay 1-consistent, as repaired by the server's
/// `Group` and pushed to their owners.
#[test]
fn leaves_repair_survivor_tables() {
    use rekey_proto::run_distributed_session;
    let network = net(7);
    let spec = IdSpec::new(4, 16).unwrap();
    let params = AssignParams::for_depth(4);
    let joins = 30usize;
    let times: Vec<u64> = (0..joins).map(|i| i as u64 * 5_000_000).collect();
    // Nodes 3, 9, 21 leave well after every join has completed.
    let leaves: Vec<(usize, u64)> = [3usize, 9, 21]
        .iter()
        .map(|&n| (n, 400_000_000 + n as u64))
        .collect();
    let out = run_distributed_session(&spec, &params, 2, &network, joins, &times, &leaves);
    assert_eq!(out.members.len(), joins - leaves.len(), "survivors only");
    let mut ids: Vec<_> = out.members.iter().map(|m| m.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), out.members.len());
    check_consistency(&spec, &out.members, &out.tables, 1)
        .expect("1-consistency after distributed leaves");
    // No survivor still references a departed host's record.
    for (m, t) in out.members.iter().zip(&out.tables) {
        for r in t.iter_all() {
            assert!(
                ids.contains(&r.member.id),
                "{} still references departed {}",
                m.id,
                r.member.id
            );
        }
    }
}

/// Regression for the formerly documented stale-table window: a member
/// that departs while another member's join is still in flight. When
/// joiners built their own tables from the records they had probed, the
/// joiner's table could retain a ghost record of the departed member
/// forever. Now the server's `Group` builds every table, so no ghost
/// survives at any overlap offset.
#[test]
fn leave_during_inflight_join_leaves_no_ghost_records() {
    use rekey_proto::run_distributed_session;
    let network = net(11);
    let spec = IdSpec::new(4, 16).unwrap();
    let params = AssignParams::for_depth(4);
    let joins = 25usize;
    // 24 members join sequentially; the last join starts at 200 s.
    let late_start = 200_000_000u64;
    let mut times: Vec<u64> = (0..24).map(|i| i as u64 * 5_000_000).collect();
    times.push(late_start);
    // Sweep the overlap: departures land from 10 ms to 2 s into the
    // in-flight join, covering every protocol phase of the joiner.
    for offset in [10_000u64, 50_000, 100_000, 500_000, 1_000_000, 2_000_000] {
        let leaves: Vec<(usize, u64)> =
            vec![(5, late_start + offset), (17, late_start + offset / 2)];
        let out = run_distributed_session(&spec, &params, 2, &network, joins, &times, &leaves);
        assert_eq!(
            out.members.len(),
            joins - 2,
            "offset {offset}: survivors only"
        );
        let ids: Vec<_> = out.members.iter().map(|m| m.id).collect();
        for (m, t) in out.members.iter().zip(&out.tables) {
            for r in t.iter_all() {
                assert!(
                    ids.contains(&r.member.id),
                    "offset {offset}: {} holds ghost record of departed {}",
                    m.id,
                    r.member.id
                );
            }
        }
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
    let spec = IdSpec::new(4, 16).unwrap();
    let params = AssignParams::for_depth(4);
    let mut times: Vec<u64> = (0..24).map(|i| i * 5_000_000).collect();
    times.push(200_000_000);
    let leaves = [(9, 150_000_000), (17, 200_050_000), (5, 200_100_000)];
    let network = net(11);
    let with_leaves = run_distributed_session(&spec, &params, 2, &network, 25, &times, &leaves);
    let sessions = [
        run(3, 25, 5_000_000, 0),
        run(7, 25, 3_000, 5_000),
        (network, with_leaves),
    ];
    let records =
        |t: &NeighborTable| -> Vec<_> { t.iter_all().map(|r| (r.member.id, r.rtt)).collect() };
    for (i, (network, out)) in sessions.iter().enumerate() {
        let mut survivors = out.members.clone();
        survivors.sort_by_key(|m| m.joined_at);
        let oracle = build_all_tables(&spec, &survivors, network, 2, PrimaryPolicy::SmallestRtt);
        for (m, table) in out.members.iter().zip(&out.tables) {
            let at = survivors.iter().position(|s| s.id == m.id).unwrap();
            assert_eq!(
                records(table),
                records(&oracle[at]),
                "session {i}: table of {}",
                m.id
            );
        }
        check_consistency(&spec, &out.members, &out.tables, 2)
            .unwrap_or_else(|v| panic!("session {i}: {v}"));
    }
}
