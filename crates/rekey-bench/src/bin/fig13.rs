//! Regenerates **Figure 13** of the paper: rekey bandwidth overhead of the
//! seven rekey transport protocols of Table 2, on the GT-ITM topology.
//!
//! Setup per §4.3: 1024 users join; then 256 joins and 256 leaves are
//! processed in one 512 s rekey interval, producing one rekey message per
//! key-management strategy; the message is delivered by each protocol and
//! we record the inverse CDFs of
//!
//! * (a) encryptions **received** per user,
//! * (b) encryptions **forwarded** per user, and
//! * (c) encryptions going through each **network link**.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rekey_bench::harness::AnyNet;
use rekey_bench::{
    arg_usize, grow_group, print_series_table, rekey_message_for_churn, ChurnPlan, Topology,
};
use rekey_id::{IdSpec, UserId};
use rekey_keytree::{ClusteredKeyTree, ModifiedKeyTree, OriginalKeyTree, RekeyArena};
use rekey_net::HostId;
use rekey_proto::{
    cluster_rekey_transport, ipmc_rekey_transport, nice_rekey_transport, tmesh_rekey_transport,
    AssignParams, BandwidthReport, TransportOptions,
};
use rekey_sim::seeded_rng;
use rekey_table::{oracle, PrimaryPolicy};
use rekey_tmesh::TmeshGroup;

fn main() {
    let initial = arg_usize("--users", 1024);
    let churn = arg_usize("--churn", 256);
    let seed = arg_usize("--seed", 0x13) as u64;
    let spec = IdSpec::PAPER;
    eprintln!("fig13: {initial} users, {churn} joins + {churn} leaves in one interval…");

    // Build the base group on GT-ITM with spare hosts for the joins.
    let mut build = grow_group(
        Topology::GtItm,
        initial,
        churn,
        &spec,
        4,
        PrimaryPolicy::SmallestRtt,
        AssignParams::paper(),
        2_048_000_000,
        seed,
    );
    let mut rng = seeded_rng(seed ^ 0x5eed);
    let base_ids: Vec<UserId> = build.group.members().iter().map(|m| m.id).collect();
    let mut order: Vec<usize> = (0..base_ids.len()).collect();
    order.sort_by_key(|&i| build.group.members()[i].joined_at);
    let ordered: Vec<UserId> = order.iter().map(|&i| base_ids[i]).collect();

    // Server-side key state over the initial membership.
    let mut modified = ModifiedKeyTree::new(&spec);
    let mut modified_arena = RekeyArena::new();
    modified
        .batch_rekey(&base_ids, &[], &mut rng, &mut modified_arena)
        .expect("initial joins");
    let mut original = OriginalKeyTree::balanced(4, &base_ids);
    let mut cluster = ClusteredKeyTree::new(&spec);
    let mut cluster_arena = RekeyArena::new();
    cluster
        .batch_rekey(&ordered, &[], &mut rng, &mut cluster_arena)
        .expect("initial joins");

    // The measured churn interval.
    let plan = ChurnPlan {
        initial,
        joins: churn,
        leaves: churn,
    };
    let mut next_host = initial + 1;
    let (joins, leaves) = rekey_message_for_churn(
        &mut build.group,
        &build.net,
        &plan,
        &mut next_host,
        &mut rng,
    );
    let out_modified = modified
        .batch_rekey(&joins, &leaves, &mut rng, &mut modified_arena)
        .unwrap();
    let out_original = original.batch_rekey(&joins, &leaves);
    let out_cluster = cluster
        .batch_rekey(&joins, &leaves, &mut rng, &mut cluster_arena)
        .unwrap();
    eprintln!(
        "fig13: rekey costs — modified {} encryptions, original {}, cluster {}",
        out_modified.cost(),
        out_original.cost(),
        out_cluster.cost()
    );

    // Post-churn membership snapshots.
    let members = build.group.members().to_vec();
    let hosts: Vec<HostId> = members.iter().map(|m| m.host).collect();
    let mesh = build.group.tmesh();
    // Tables with leader-aware primaries for the cluster protocols.
    let cluster_tables = oracle::build_all_tables(
        &spec,
        &members,
        &build.net,
        4,
        PrimaryPolicy::EarliestJoinAtBottom,
    );
    let cluster_mesh = TmeshGroup::from_tables(
        &spec,
        members.clone(),
        cluster_tables.into_iter().map(Arc::new).collect(),
        Arc::new(oracle::build_server_table(
            &spec,
            &members,
            build.server,
            &build.net,
            4,
        )),
        build.server,
    );
    let is_leader = |i: usize| cluster.tree().contains_user(&members[i].id);
    let cluster_of = |i: usize| -> Vec<usize> {
        let prefix = members[i].id.prefix(spec.depth() - 1);
        members
            .iter()
            .enumerate()
            .filter(|(_, m)| prefix.is_prefix_of_id(&m.id))
            .map(|(k, _)| k)
            .collect()
    };

    // NICE hierarchy over the post-churn hosts, joined sequentially in the
    // same order the members joined the group.
    let nice = {
        let mut n = rekey_nice::NiceHierarchy::new(rekey_nice::NiceParams::default());
        for &h in &hosts {
            n.join(h, &build.net);
        }
        n
    };

    // Need-sets for the original key tree (P0/P0′): node indices on each
    // member's leaf-to-root path.
    let needs: HashMap<HostId, HashSet<usize>> = members
        .iter()
        .map(|m| {
            let path: HashSet<usize> = original.user_path(&m.id).into_iter().map(|n| n.0).collect();
            let needed: HashSet<usize> = out_original
                .encryptions
                .iter()
                .enumerate()
                .filter(|(_, e)| path.contains(&e.encrypting.0))
                .map(|(i, _)| i)
                .collect();
            (m.host, needed)
        })
        .collect();

    let AnyNet::Routed(routed) = &build.net else {
        panic!("fig13 runs on GT-ITM")
    };
    let reports: Vec<(&str, BandwidthReport)> = vec![
        (
            "P0(nice)",
            nice_rekey_transport(
                &nice,
                &build.net,
                build.server,
                &hosts,
                &needs,
                out_original.cost(),
                false,
            ),
        ),
        (
            "P0'(nice+split)",
            nice_rekey_transport(
                &nice,
                &build.net,
                build.server,
                &hosts,
                &needs,
                out_original.cost(),
                true,
            ),
        ),
        (
            "P1(tmesh)",
            tmesh_rekey_transport(
                &mesh,
                &build.net,
                out_modified.encryptions(),
                TransportOptions::flood(),
            ),
        ),
        (
            "P2(tmesh+split)",
            tmesh_rekey_transport(
                &mesh,
                &build.net,
                out_modified.encryptions(),
                TransportOptions::split(),
            ),
        ),
        (
            "P3(tmesh+cluster)",
            cluster_rekey_transport(
                &cluster_mesh,
                &build.net,
                out_cluster.rekey().encryptions(),
                TransportOptions::flood(),
                &is_leader,
                &cluster_of,
            ),
        ),
        (
            "P4(tmesh+cluster+split)",
            cluster_rekey_transport(
                &cluster_mesh,
                &build.net,
                out_cluster.rekey().encryptions(),
                TransportOptions::split(),
                &is_leader,
                &cluster_of,
            ),
        ),
        (
            "Pm(ipmc)",
            ipmc_rekey_transport(routed, build.server, &hosts, out_original.cost()),
        ),
    ];

    let sorted = |v: &[u64]| -> Vec<f64> {
        let mut s: Vec<f64> = v.iter().map(|&x| x as f64).collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s
    };
    let recv: Vec<(&str, Vec<f64>)> = reports
        .iter()
        .map(|(n, r)| (*n, sorted(&r.received)))
        .collect();
    let fwd: Vec<(&str, Vec<f64>)> = reports
        .iter()
        .map(|(n, r)| (*n, sorted(&r.forwarded)))
        .collect();
    let link: Vec<(&str, Vec<f64>)> = reports
        .iter()
        .map(|(n, r)| {
            let loads = r
                .link_load
                .as_ref()
                .expect("GT-ITM has links")
                .sorted_loads();
            (*n, loads.into_iter().map(|x| x as f64).collect())
        })
        .collect();

    print_series_table(
        "fig13a: inverse CDF of encryptions received per user",
        &recv
            .iter()
            .map(|(n, s)| (*n, s.as_slice()))
            .collect::<Vec<_>>(),
    );
    print_series_table(
        "fig13b: inverse CDF of encryptions forwarded per user",
        &fwd.iter()
            .map(|(n, s)| (*n, s.as_slice()))
            .collect::<Vec<_>>(),
    );
    print_series_table(
        "fig13c: inverse CDF of encryptions per network link",
        &link
            .iter()
            .map(|(n, s)| (*n, s.as_slice()))
            .collect::<Vec<_>>(),
    );

    for (name, r) in &reports {
        let p90 = percentile_u64(&r.received, 0.90);
        eprintln!(
            "fig13: {name}: 90th-pct user receives {p90} encryptions; max received {}, max forwarded {}, max link {}",
            r.received.iter().max().unwrap(),
            r.forwarded.iter().max().unwrap(),
            r.link_load.as_ref().map(|l| l.max()).unwrap_or(0),
        );
    }
}

fn percentile_u64(v: &[u64], q: f64) -> u64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    s[((q * (s.len() - 1) as f64).round()) as usize]
}
