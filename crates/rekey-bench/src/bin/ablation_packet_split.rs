//! Ablation: splitting granularity (§2.5, last paragraph).
//!
//! "An alternative way is to split and re-compose the rekey message at
//! packet level, instead of encryption level. In this case, the rekey
//! bandwidth overhead would be larger." We quantify this by re-running the
//! Fig. 13 T-mesh transport with the message grouped into fixed-size
//! packets: a packet is forwarded to a next hop iff *any* contained
//! encryption is needed in that hop's subtree, and the receiver is charged
//! for the whole packet. Each member receives exactly one copy
//! (Theorem 1), so it is charged the packets that hold any encryption of
//! the set the split transport delivers it.

use rekey_bench::{arg_usize, grow_group, rekey_message_for_churn, ChurnPlan, Topology};
use rekey_id::IdSpec;
use rekey_keytree::{ModifiedKeyTree, RekeyArena};
use rekey_proto::{tmesh_rekey_transport, AssignParams, TransportOptions};
use rekey_sim::seeded_rng;
use rekey_table::PrimaryPolicy;

fn main() {
    let users = arg_usize("--users", 512);
    let churn = arg_usize("--churn", 128);
    let spec = IdSpec::PAPER;
    eprintln!("ablation_packet_split: {users} users, {churn}+{churn} churn…");

    let mut build = grow_group(
        Topology::GtItm,
        users,
        churn,
        &spec,
        4,
        PrimaryPolicy::SmallestRtt,
        AssignParams::paper(),
        2_048_000_000,
        0x9acc,
    );
    let mut rng = seeded_rng(0x9acd);
    let ids: Vec<_> = build.group.members().iter().map(|m| m.id).collect();
    let mut tree = ModifiedKeyTree::new(&spec);
    let mut arena = RekeyArena::new();
    tree.batch_rekey(&ids, &[], &mut rng, &mut arena).unwrap();
    let plan = ChurnPlan {
        initial: users,
        joins: churn,
        leaves: churn,
    };
    let mut next_host = users + 1;
    let (joins, leaves) = rekey_message_for_churn(
        &mut build.group,
        &build.net,
        &plan,
        &mut next_host,
        &mut rng,
    );
    let out = tree
        .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
        .unwrap();
    let mesh = build.group.tmesh();
    let n = mesh.members().len();
    let report = tmesh_rekey_transport(
        &mesh,
        &build.net,
        out.encryptions(),
        TransportOptions::split().with_detail(),
    );
    let received_sets = report.received_sets.expect("detail was asked for");

    println!("# ablation_packet_split: total encryptions received, by splitting granularity");
    println!(
        "# message: {} encryptions; packet sizes in encryptions per packet",
        out.cost()
    );
    println!("granularity\ttotal_received\tmax_received_per_user\tavg_received_per_user");

    // Packet size sweep: 1 (pure encryption-level) to 64.
    for packet_size in [1usize, 4, 8, 18, 32, 64] {
        // Pre-assign encryptions to packets in message order.
        let packet_of: Vec<usize> = (0..out.cost()).map(|e| e / packet_size).collect();
        let packet_count = out.cost().div_ceil(packet_size);
        let packet_sizes: Vec<u64> = (0..packet_count)
            .map(|p| packet_of.iter().filter(|&&q| q == p).count() as u64)
            .collect();

        // Charge whole packets containing any needed encryption.
        let received: Vec<u64> = received_sets
            .iter()
            .map(|needed| {
                let mut packets: Vec<usize> = needed.iter().map(|&e| packet_of[e]).collect();
                packets.sort_unstable();
                packets.dedup();
                packets.iter().map(|&p| packet_sizes[p]).sum()
            })
            .collect();
        let total: u64 = received.iter().sum();
        let max = received.iter().max().copied().unwrap_or(0);
        println!(
            "packet={packet_size}\t{total}\t{max}\t{:.1}",
            total as f64 / n as f64
        );
    }
}
