//! `Group::leave` and `Group::join` do not allocate per member touched.
//!
//! A join offers the joiner to every member's table. With heap IDs and one
//! `Vec` per table entry that was at least two allocations per table (a
//! cloned `Member`, a re-hashed index key, a candidate list per owner);
//! with inline IDs and flat tables what is left is a handful of
//! per-operation buffers plus the occasional amortised growth of a table's
//! record vector.
//!
//! A leave visits only the tables that may hold the leaver, found through
//! `Group`'s holder index, so once that index is built a leave's
//! allocations do not depend on the group's size at all.
//!
//! A join is one pass over the roster that builds the joiner's table and
//! offers the joiner to every owner; the pass itself allocates nothing, so
//! a warmed join allocates no more than the two-pass join it replaced, and
//! since the §3.1 probe collects each digit into one vector, only what the
//! probe's few buffers and the joiner's new table need.
//!
//! The counter is per thread, so the two tests cannot pollute each other.

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

/// Allocations of one leave of a late-dealt member of an `n`-member dealt
/// group, after a warm-up leave (which builds the holder index) and join.
fn warmed_leave_allocations(n: usize) -> u64 {
    let spec = IdSpec::new(4, 16).unwrap();
    let net = GridNetwork::new(n + 8, 1_000, 100);
    let hosts: Vec<HostId> = (0..n).map(HostId).collect();
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
    let warm = group.members()[n / 2].id;
    group.leave(&warm, &net).unwrap();
    group.join(HostId(n), &net, 1).unwrap();

    let late = group.members()[n - 3].id;
    let before = allocations();
    group.leave(&late, &net).unwrap();
    let spent = allocations() - before;
    group
        .check()
        .expect("K-consistent after the measured leave");
    spent
}

/// Allocations of one join into an `n`-member dealt group, after a
/// warm-up leave and join (which build the holder index and the admission
/// bounds) and one more leave, so that the measured join, like every join
/// of a churn interval that follows its leaves, reuses a free table slot.
fn warmed_join_allocations(n: usize) -> u64 {
    let spec = IdSpec::new(4, 16).unwrap();
    let net = GridNetwork::new(n + 8, 1_000, 100);
    let hosts: Vec<HostId> = (0..n).map(HostId).collect();
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
    let warm = group.members()[n / 2].id;
    group.leave(&warm, &net).unwrap();
    group.join(HostId(n), &net, 1).unwrap();
    let late = group.members()[n - 3].id;
    group.leave(&late, &net).unwrap();

    let before = allocations();
    group.join(HostId(n + 1), &net, 2).unwrap();
    let spent = allocations() - before;
    group.check().expect("K-consistent after the measured join");
    spent
}

/// The count `warmed_join_allocations(4_096)` gives since the §3.1 probe
/// collects each digit into one vector and one hash set and hands back its
/// digits as an inline prefix; it was 166 while the probe kept one sorted
/// vector per bucket. Of the 38, 27 are the probe's per-join buffers (the
/// collected records, their hash set, the queried list, the bucket runs and
/// the RTTs), each growing a few times; 11 are the joiner's new table
/// growing its record vector (76 records) and its entry index (46 entries)
/// as records arrive. (A join that appends a table slot instead also grows
/// the per-slot vectors now and then.)
const JOIN_ALLOCATIONS_BEFORE: u64 = 38;

#[test]
fn a_warmed_join_allocates_no_more_than_the_full_scan_join() {
    let spent = warmed_join_allocations(4_096);
    assert!(
        spent <= JOIN_ALLOCATIONS_BEFORE,
        "a warmed join made {spent} heap allocations, {JOIN_ALLOCATIONS_BEFORE} before"
    );
}

#[test]
fn a_warmed_leave_allocates_the_same_few_times_at_any_size() {
    let small = warmed_leave_allocations(1_024);
    let large = warmed_leave_allocations(4_096);
    assert_eq!(small, large, "leave allocations grew with the group");
    assert!(small <= 4, "a warmed leave made {small} heap allocations");
}
