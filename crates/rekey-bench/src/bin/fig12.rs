//! Regenerates **Figure 12** of the paper: rekey cost as a function of the
//! number of joins `J` and leaves `L` in one rekey interval, for
//!
//! * (a) the modified key tree,
//! * (b) the modified key tree minus the original (Wong–Gouda–Lam,
//!   degree 4, batch rekeying) key tree, and
//! * (c) the modified key tree with the cluster rekeying heuristic minus
//!   the original key tree.
//!
//! Setup per the paper (§4.2): 1024 users join on the GT-ITM topology (IDs
//! via the assignment protocol); then `J` joins and `L` leaves are
//! processed in one interval; each `(J, L)` point averages over `--runs`
//! runs (paper: 20; default here 5 for turnaround — pass `--runs 20` for
//! the full setting). The `J`/`L` grid step is `--step` (default 256).

use rekey_bench::{arg_usize, grow_group, rekey_message_for_churn, ChurnPlan, Topology};
use rekey_id::{IdSpec, UserId};
use rekey_keytree::{ClusteredKeyTree, ModifiedKeyTree, OriginalKeyTree, RekeyArena};
use rekey_proto::AssignParams;
use rekey_sim::seeded_rng;
use rekey_table::PrimaryPolicy;

fn main() {
    let initial = arg_usize("--users", 1024);
    let runs = arg_usize("--runs", 5);
    let step = arg_usize("--step", 256);
    let spec = IdSpec::PAPER;
    eprintln!("fig12: {initial} initial users, grid step {step}, {runs} runs/point…");

    let grid: Vec<usize> = (0..=initial).step_by(step.max(1)).collect();
    // sums[(j, l)] = (modified, original, cluster)
    let mut sums = vec![[0f64; 3]; grid.len() * grid.len()];

    for run in 0..runs {
        let seed = 0x12f1_0000 + run as u64;
        let build = grow_group(
            Topology::GtItm,
            initial,
            initial, // spare hosts for the largest J
            &spec,
            4,
            PrimaryPolicy::SmallestRtt,
            AssignParams::paper(),
            2_048_000_000,
            seed,
        );
        let mut rng = seeded_rng(seed ^ 0xfee1);
        let base_ids: Vec<UserId> = build.group.members().iter().map(|m| m.id).collect();
        let mut order: Vec<usize> = (0..base_ids.len()).collect();
        order.sort_by_key(|&i| build.group.members()[i].joined_at);
        let ordered: Vec<UserId> = order.iter().map(|&i| base_ids[i]).collect();

        // Server-side trees over the initial membership.
        let mut arena = RekeyArena::new();
        let mut base_modified = ModifiedKeyTree::new(&spec);
        base_modified
            .batch_rekey(&base_ids, &[], &mut rng, &mut arena)
            .expect("initial joins");
        let base_original = OriginalKeyTree::balanced(4, &base_ids);
        let mut base_cluster = ClusteredKeyTree::new(&spec);
        base_cluster
            .batch_rekey(&ordered, &[], &mut rng, &mut arena)
            .expect("initial joins");

        for (ji, &j) in grid.iter().enumerate() {
            for (li, &l) in grid.iter().enumerate() {
                let mut group = build.group.clone();
                let plan = ChurnPlan {
                    initial,
                    joins: j,
                    leaves: l,
                };
                let mut next_host = initial + 1;
                let (joins, leaves) = rekey_message_for_churn(
                    &mut group,
                    &build.net,
                    &plan,
                    &mut next_host,
                    &mut rng,
                );

                let mut modified = base_modified.clone();
                let mut original = base_original.clone();
                let mut cluster = base_cluster.clone();
                let cell = &mut sums[ji * grid.len() + li];
                cell[0] += modified
                    .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
                    .unwrap()
                    .cost() as f64;
                cell[1] += original.batch_rekey(&joins, &leaves).cost() as f64;
                cell[2] += cluster
                    .batch_rekey(&joins, &leaves, &mut rng, &mut arena)
                    .unwrap()
                    .cost() as f64;
            }
        }
        eprintln!("fig12: run {} / {runs} done", run + 1);
    }

    println!("# fig12: rekey cost vs (J joins, L leaves); averages over {runs} runs");
    println!("J\tL\tmodified\toriginal\tcluster\tmod_minus_orig\tcluster_minus_orig");
    for (ji, &j) in grid.iter().enumerate() {
        for (li, &l) in grid.iter().enumerate() {
            let cell = sums[ji * grid.len() + li];
            let n = runs as f64;
            let (m, o, c) = (cell[0] / n, cell[1] / n, cell[2] / n);
            println!(
                "{j}\t{l}\t{m:.1}\t{o:.1}\t{c:.1}\t{:.1}\t{:.1}",
                m - o,
                c - o
            );
        }
    }
}
