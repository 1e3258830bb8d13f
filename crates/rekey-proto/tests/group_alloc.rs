//! `Group::leave` and `Group::join` do not allocate per member touched.
//!
//! Both walk every member's table. With heap IDs and one `Vec` per table
//! entry that was at least two allocations per table (a cloned `Member`,
//! a re-hashed index key, a candidate list per owner); with inline IDs and
//! flat tables what is left is a handful of per-operation buffers plus the
//! occasional amortised growth of a table's record vector.
//!
//! Kept as a single `#[test]` so no sibling test can allocate concurrently
//! and pollute the counter.

use rekey_id::IdSpec;
use rekey_net::{GridNetwork, HostId, Network};
use rekey_proto::{AssignParams, Group};
use rekey_table::PrimaryPolicy;

#[path = "../../rekey-crypto/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn leave_and_join_allocate_far_less_than_once_per_member() {
    const N: usize = 1_024;
    let spec = IdSpec::new(4, 16).unwrap();
    let net = GridNetwork::new(N + 8, 1_000, 100);
    let hosts: Vec<HostId> = (0..N).map(HostId).collect();
    let mut group = Group::bootstrap(
        &spec,
        HostId(net.host_count() - 1),
        2,
        PrimaryPolicy::SmallestRtt,
        AssignParams::for_depth(spec.depth()),
        &hosts,
        &net,
    )
    .unwrap();
    // Warm-up: one leave and one join, so first-use growth is behind us.
    let warm = group.members()[N / 2].id;
    group.leave(&warm, &net).unwrap();
    group.join(HostId(N), &net, 1).unwrap();

    // Bootstrap member 0 sits in every other member's table.
    let first = group.members()[0].id;
    let before = allocations();
    group.leave(&first, &net).unwrap();
    group.join(HostId(N + 1), &net, 2).unwrap();
    let spent = allocations() - before;

    assert_eq!(group.len(), N);
    group.check().expect("K-consistent after the measured pair");
    assert!(
        spent < (N / 4) as u64,
        "leave + join of a {N}-member group made {spent} heap allocations"
    );
}
