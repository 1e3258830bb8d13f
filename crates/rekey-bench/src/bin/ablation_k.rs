//! Ablation: the neighbor-table entry capacity `K`.
//!
//! The paper sets `K = 4` "for resilience" (§2.2) — multicast correctness
//! only needs `K = 1`. This ablation sweeps `K ∈ {1, 2, 4, 8}` and reports
//! what `K` buys: surviving primaries after random member failures (the
//! fail-over capacity of Theorem 1's recovery path) against the per-user
//! memory cost (stored neighbor records).

use rand::seq::SliceRandom;
use rekey_bench::{arg_usize, grow_group, Topology};
use rekey_id::IdSpec;
use rekey_proto::AssignParams;
use rekey_sim::seeded_rng;
use rekey_table::PrimaryPolicy;

fn main() {
    let users = arg_usize("--users", 226);
    let fail_fraction_pct = arg_usize("--fail-pct", 20);
    println!("# ablation_k: resilience vs memory as K grows (N = {users}, {fail_fraction_pct}% failures)");
    println!("K\tavg_records_per_user\tentries_with_backup_pct\tentries_lost_pct");

    for k in [1usize, 2, 4, 8] {
        let build = grow_group(
            Topology::PlanetLab,
            users,
            0,
            &IdSpec::PAPER,
            k,
            PrimaryPolicy::SmallestRtt,
            AssignParams::paper(),
            452_000_000,
            0xAB1 + k as u64,
        );
        let mut rng = seeded_rng(0xFA11 + k as u64);
        let mut failed: Vec<usize> = (0..users).collect();
        failed.shuffle(&mut rng);
        let failed: std::collections::HashSet<usize> = failed
            .into_iter()
            .take(users * fail_fraction_pct / 100)
            .collect();
        let failed_ids: std::collections::HashSet<_> = failed
            .iter()
            .map(|&i| build.group.members()[i].id)
            .collect();

        let mut records = 0usize;
        let mut entries = 0usize;
        let mut with_backup = 0usize;
        let mut lost = 0usize;
        for (i, _) in build.group.members().iter().enumerate() {
            if failed.contains(&i) {
                continue;
            }
            let table = build.group.table(i);
            records += table.neighbor_count();
            for row in 0..IdSpec::PAPER.depth() {
                for j in 0..IdSpec::PAPER.base() {
                    let entry = table.entry(row, j);
                    if entry.is_empty() {
                        continue;
                    }
                    entries += 1;
                    let alive = entry
                        .iter()
                        .filter(|r| !failed_ids.contains(&r.member.id))
                        .count();
                    if alive == 0 {
                        lost += 1;
                    } else if alive > 1 || !failed_ids.contains(&entry.primary().unwrap().member.id)
                    {
                        with_backup += 1;
                    }
                }
            }
        }
        let survivors = users - failed.len();
        println!(
            "{k}\t{:.1}\t{:.1}\t{:.2}",
            records as f64 / survivors as f64,
            100.0 * with_backup as f64 / entries as f64,
            100.0 * lost as f64 / entries as f64,
        );
    }
}
