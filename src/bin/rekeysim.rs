//! `rekeysim` — a command-line driver for the group rekeying simulator.
//!
//! Runs a configurable number of rekey intervals over a chosen topology and
//! prints per-interval statistics: rekey cost, split-transport bandwidth,
//! multicast latency, and end-to-end key-delivery verification.
//!
//! ```text
//! USAGE:
//!   rekeysim [--topology planetlab|gtitm] [--users N] [--intervals N]
//!            [--churn N] [--split true|false] [--loss PCT] [--seed N]
//!
//! With `--loss > 0` the lossy transport is used, which always splits
//! (`--split false` only affects the loss-free path).
//!
//! EXAMPLE:
//!   cargo run --release --bin rekeysim -- --topology gtitm --users 256 \
//!       --intervals 5 --churn 16 --loss 2
//! ```

use std::collections::HashMap;

use group_rekeying::id::{IdSpec, UserId};
use group_rekeying::keytree::{KeyRing, ModifiedKeyTree, RekeyArena};
use group_rekeying::net::gtitm::{generate, GtItmParams};
use group_rekeying::net::{HostId, MatrixNetwork, Network, PlanetLabParams, RoutedNetwork};
use group_rekeying::proto::{
    lossy_rekey_transport, tmesh_rekey_transport, AssignParams, Group, TransportOptions,
};
use group_rekeying::sim::seeded_rng;
use group_rekeying::table::PrimaryPolicy;
use group_rekeying::tmesh::{metrics::PathMetrics, Source};
use rand::Rng;

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

enum Net {
    Matrix(MatrixNetwork),
    Routed(RoutedNetwork),
}

impl Network for Net {
    fn host_count(&self) -> usize {
        match self {
            Net::Matrix(n) => n.host_count(),
            Net::Routed(n) => n.host_count(),
        }
    }
    fn rtt(&self, a: HostId, b: HostId) -> u64 {
        match self {
            Net::Matrix(n) => n.rtt(a, b),
            Net::Routed(n) => n.rtt(a, b),
        }
    }
    fn gateway_rtt(&self, a: HostId, b: HostId) -> u64 {
        match self {
            Net::Matrix(n) => n.gateway_rtt(a, b),
            Net::Routed(n) => n.gateway_rtt(a, b),
        }
    }
    fn one_way(&self, a: HostId, b: HostId) -> u64 {
        match self {
            Net::Matrix(n) => n.one_way(a, b),
            Net::Routed(n) => n.one_way(a, b),
        }
    }
}

fn main() {
    let topology: String = arg("--topology", "planetlab".to_string());
    let users: usize = arg("--users", 128);
    let intervals: usize = arg("--intervals", 5);
    let churn: usize = arg("--churn", 8);
    let split: bool = arg("--split", true);
    let loss_pct: u32 = arg("--loss", 0);
    let seed: u64 = arg("--seed", 1);

    let spec = IdSpec::PAPER;
    let capacity = users + intervals * churn + 1;
    let mut rng = seeded_rng(seed);
    let net = match topology.as_str() {
        "gtitm" => {
            let topo = generate(&GtItmParams::default(), &mut rng);
            Net::Routed(RoutedNetwork::random_attachment(
                topo.into_graph(),
                capacity,
                &mut rng,
            ))
        }
        "planetlab" => {
            let mut params = PlanetLabParams::default();
            let total: usize = params.continent_hosts.iter().sum();
            params.continent_hosts = params
                .continent_hosts
                .iter()
                .map(|&c| (c * capacity).div_ceil(total))
                .collect();
            Net::Matrix(MatrixNetwork::synthetic_planetlab(&params, &mut rng))
        }
        other => {
            eprintln!("unknown topology '{other}' (use planetlab or gtitm)");
            std::process::exit(2);
        }
    };
    let server = HostId(net.host_count() - 1);
    eprintln!(
        "rekeysim: {users} users on {topology}, {intervals} intervals × {churn}+{churn} churn, \
         split={split}, loss={loss_pct}%"
    );

    let mut group = Group::new(
        &spec,
        server,
        4,
        PrimaryPolicy::SmallestRtt,
        AssignParams::paper(),
    );
    let mut tree = ModifiedKeyTree::new(&spec);
    let mut arena = RekeyArena::new();
    let mut rings: HashMap<UserId, KeyRing> = HashMap::new();
    let mut next_host = 0usize;
    for t in 0..users {
        let id = group.join(HostId(next_host), &net, t as u64).unwrap().id;
        next_host += 1;
        tree.batch_rekey(std::slice::from_ref(&id), &[], &mut rng, &mut arena)
            .unwrap();
    }
    for m in group.members() {
        rings.insert(m.id, KeyRing::new(m.id, tree.user_path_keys(&m.id)));
    }

    println!("interval\tjoins\tleaves\trekey_encs\tmax_recv\ttotal_recv\trecovered\tp95_delay_ms\tkeys_ok");
    for interval in 1..=intervals {
        let mut leaves = Vec::new();
        for _ in 0..churn.min(group.len().saturating_sub(1)) {
            let pick = rng.gen_range(0..group.len());
            let id = group.members()[pick].id;
            group.leave(&id, &net).unwrap();
            rings.remove(&id);
            leaves.push(id);
        }
        let mut joins = Vec::new();
        for _ in 0..churn {
            let id = group
                .join(
                    HostId(next_host),
                    &net,
                    (interval * 1000 + next_host) as u64,
                )
                .unwrap()
                .id;
            next_host += 1;
            joins.push(id);
        }
        let out = tree
            .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
            .unwrap();
        for id in &joins {
            rings.insert(*id, KeyRing::new(*id, tree.user_path_keys(id)));
        }

        let mesh = group.tmesh();
        let (per_member, max_recv, total_recv, recovered): (Vec<Vec<usize>>, u64, u64, usize) =
            if loss_pct > 0 {
                let report = lossy_rekey_transport(
                    &mesh,
                    out.encryptions(),
                    f64::from(loss_pct) / 100.0,
                    &mut rng,
                );
                let max = report.received.iter().max().copied().unwrap_or(0);
                let total = report.received.iter().sum();
                let rec = report.recovering_members.len();
                (report.final_sets, max, total, rec)
            } else {
                let report = tmesh_rekey_transport(
                    &mesh,
                    &net,
                    out.encryptions(),
                    TransportOptions {
                        split,
                        detail: true,
                    },
                );
                let max = report.received.iter().max().copied().unwrap_or(0);
                let total = report.received.iter().sum();
                (report.received_sets.expect("detail"), max, total, 0)
            };
        let mut keys_ok = true;
        for (i, member) in mesh.members().iter().enumerate() {
            let ring = rings.get_mut(&member.id).expect("member has a ring");
            ring.absorb(per_member[i].iter().map(|&e| &out.encryptions()[e]));
            keys_ok &= ring.matches_path(&spec, tree.user_path_keys(&member.id));
        }

        let outcome = mesh.multicast(&net, Source::Server);
        outcome.exactly_once().expect("Theorem 1");
        let metrics = PathMetrics::from_outcome(&mesh, &net, &outcome);
        let mut delays: Vec<f64> = metrics
            .delay
            .iter()
            .flatten()
            .map(|&d| d as f64 / 1000.0)
            .collect();
        delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = delays[(delays.len() * 95) / 100];

        println!(
            "{interval}\t{}\t{}\t{}\t{max_recv}\t{total_recv}\t{recovered}\t{p95:.1}\t{keys_ok}",
            joins.len(),
            leaves.len(),
            out.cost(),
        );
    }
    group
        .check()
        .expect("K-consistent tables after the whole run");
    eprintln!("rekeysim: done; tables K-consistent, every member holds the current keys");
}
