//! Ablation: rekey delivery under message loss, with limited unicast
//! recovery (the \[31\] companion mechanism).
//!
//! Sweeps the per-copy loss probability and reports how many members fall
//! back to unicast recovery and how much server bandwidth the recovery
//! pass costs, relative to the multicast message itself.

use rekey_bench::{arg_usize, grow_group, rekey_message_for_churn, ChurnPlan, Topology};
use rekey_id::IdSpec;
use rekey_keytree::{ModifiedKeyTree, RekeyArena};
use rekey_proto::{lossy_rekey_transport, AssignParams};
use rekey_sim::seeded_rng;
use rekey_table::PrimaryPolicy;

fn main() {
    let users = arg_usize("--users", 512);
    let churn = arg_usize("--churn", 128);
    let spec = IdSpec::PAPER;
    eprintln!("ablation_loss: {users} users, {churn}+{churn} churn…");

    let mut build = grow_group(
        Topology::GtItm,
        users,
        churn,
        &spec,
        4,
        PrimaryPolicy::SmallestRtt,
        AssignParams::paper(),
        2_048_000_000,
        0x1055,
    );
    let mut rng = seeded_rng(0x1056);
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

    println!("# ablation_loss: split rekey transport under per-copy loss + unicast recovery");
    println!(
        "# message: {} encryptions, {} members",
        out.cost(),
        mesh.members().len()
    );
    println!("loss_pct\tcopies_lost\trecovering_members\trecovery_encs\trecovery_msgs");
    for loss_pct in [0u32, 1, 2, 5, 10, 20, 40] {
        let report = lossy_rekey_transport(
            &mesh,
            out.encryptions(),
            f64::from(loss_pct) / 100.0,
            &mut seeded_rng(0xAB + u64::from(loss_pct)),
        );
        println!(
            "{loss_pct}\t{}\t{}\t{}\t{}",
            report.copies_lost,
            report.recovering_members.len(),
            report.recovery_encryptions,
            report.recovery_messages(),
        );
    }
}
