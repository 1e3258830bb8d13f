//! Experiment: concurrent rekey and data transport under bandwidth
//! contention — the paper's §1 motivation, quantified.
//!
//! A data sender streams frames while the key server multicasts a rekey
//! burst over the same overlay; every member's access link serialises its
//! egress. Reports the data frames' latency (mean / p95 / max, ms) with no
//! rekey, with `REKEY-MESSAGE-SPLIT`, and with the unsplit message, across
//! access-link bandwidths.

use rekey_bench::{arg_usize, grow_group, Topology};
use rekey_id::{IdPrefix, IdSpec};
use rekey_keytree::{ModifiedKeyTree, RekeyArena};
use rekey_proto::{run_concurrent_session, AssignParams, RekeyLoad, TrafficParams};
use rekey_sim::seeded_rng;
use rekey_table::PrimaryPolicy;

fn main() {
    let users = arg_usize("--users", 1024);
    let churn = arg_usize("--churn", 256);
    let spec = IdSpec::PAPER;
    eprintln!(
        "concurrent_transport: {users} users, burst = one {churn}+{churn}-churn rekey message…"
    );

    let mut build = grow_group(
        Topology::PlanetLab,
        users,
        churn,
        &spec,
        4,
        PrimaryPolicy::SmallestRtt,
        AssignParams::paper(),
        452_000_000,
        0xC0C1,
    );
    let mut rng = seeded_rng(0xC0C2);
    let ids: Vec<_> = build.group.members().iter().map(|m| m.id).collect();
    let mut tree = ModifiedKeyTree::new(&spec);
    let mut arena = RekeyArena::new();
    tree.batch_rekey(&ids, &[], &mut rng, &mut arena).unwrap();
    let plan = rekey_bench::ChurnPlan {
        initial: users,
        joins: churn,
        leaves: churn,
    };
    let mut next_host = users + 1;
    let (joins, leaves) = rekey_bench::rekey_message_for_churn(
        &mut build.group,
        &build.net,
        &plan,
        &mut next_host,
        &mut rng,
    );
    let out = tree
        .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
        .unwrap();
    let enc_ids: Vec<IdPrefix> = out.encryptions().iter().map(|e| *e.id()).collect();
    let mesh = build.group.tmesh();
    eprintln!(
        "concurrent_transport: rekey message = {} encryptions",
        enc_ids.len()
    );

    println!("# concurrent_transport: data-frame latency under a concurrent rekey burst");
    println!(
        "# 60 frames at 50 fps; message of {} encryptions injected at t = 0",
        enc_ids.len()
    );
    println!("bandwidth_mbps\tload\tmean_ms\tp50_ms\tp95_ms\tmax_ms");
    for mbps in [2u64, 10, 100] {
        let params = TrafficParams {
            bandwidth_bps: mbps * 1_000_000 / 8,
            frames: 60,
            ..TrafficParams::default()
        };
        for (label, load) in [
            ("none", RekeyLoad::None),
            ("split", RekeyLoad::Split),
            ("unsplit", RekeyLoad::Unsplit),
        ] {
            let outcome = run_concurrent_session(&mesh, &build.net, &enc_ids, load, 7, &params);
            let mean = outcome.frame_latencies.iter().sum::<u64>() as f64
                / outcome.frame_latencies.len() as f64
                / 1000.0;
            println!(
                "{mbps}\t{label}\t{mean:.1}\t{:.1}\t{:.1}\t{:.1}",
                outcome.latency_ms(0.5),
                outcome.latency_ms(0.95),
                outcome.latency_ms(1.0),
            );
        }
    }
}
