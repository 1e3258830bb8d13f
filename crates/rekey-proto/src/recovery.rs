//! Lossy rekey transport with limited unicast recovery.
//!
//! Rekey messages "require fast delivery to achieve tight group access
//! control" (§1) but real networks lose packets. The paper's companion
//! work — *Group rekeying with limited unicast recovery* \[31\] (Zhang, Lam
//! & Lee) — recovers exactly the way this module models: users that missed
//! (part of) the multicast rekey message fetch their missing encryptions
//! from the key server via unicast.
//!
//! [`lossy_rekey_transport`] runs the split T-mesh transport while each
//! overlay copy is independently lost with probability `loss`; a lost copy
//! silences the entire downstream subtree of that hop (the copy is the only
//! one they would get, Theorem 1). [`LossyReport`] then quantifies the
//! recovery pass: every member compares what it received against what it
//! needs (Lemma 3 makes this locally checkable — its own path prefixes)
//! and unicasts the server for the difference.

use rand::Rng;
use rekey_crypto::Encryption;
use rekey_sim::SimRng;
use rekey_tmesh::TmeshGroup;

use crate::transport::RekeySession;

/// Outcome of a lossy rekey transport plus its unicast recovery pass.
#[derive(Debug, Clone)]
pub struct LossyReport {
    /// Encryptions received via multicast, per member.
    pub received: Vec<u64>,
    /// Overlay copies lost in flight.
    pub copies_lost: u64,
    /// Members that needed recovery (missed at least one needed
    /// encryption).
    pub recovering_members: Vec<usize>,
    /// Encryptions the server re-sent via unicast, total.
    pub recovery_encryptions: u64,
    /// Per-member encryption indices held after recovery (multicast +
    /// unicast), for end-to-end verification.
    pub final_sets: Vec<Vec<usize>>,
}

impl LossyReport {
    /// Recovery unicast messages (one request plus one reply per
    /// recovering member).
    pub fn recovery_messages(&self) -> u64 {
        2 * self.recovering_members.len() as u64
    }
}

/// Runs the split rekey transport under independent per-copy loss with
/// probability `loss`, then the unicast recovery pass.
///
/// # Panics
///
/// Panics if `loss` is not within `[0, 1)`.
pub fn lossy_rekey_transport(
    group: &TmeshGroup,
    message: &[Encryption],
    loss: f64,
    rng: &mut SimRng,
) -> LossyReport {
    assert!(
        (0.0..1.0).contains(&loss),
        "loss probability must be in [0, 1)"
    );
    let session = RekeySession::new(group, message, true);
    let mut received: Vec<Vec<usize>> = vec![Vec::new(); group.members().len()];
    let mut copies_lost = 0u64;

    // One loss draw per copy, in walk order: which copies drop depends on
    // the seed and the mesh alone, never on payload contents.
    session.walk(
        &mut received,
        |_, _, _, _, _| {
            let lost = rng.gen_bool(loss);
            copies_lost += u64::from(lost);
            (!lost).then_some(())
        },
        |received, member, payload, ()| session.payload_extend(payload, &mut received[member]),
    );

    // Recovery: each member checks its *own* needs (Lemma 3) and fetches
    // the difference from the server via unicast. A member's needs are the
    // encryptions whose IDs lie on its path — exactly the related set of
    // its full-length ID, so the split index answers it directly.
    let mut recovering_members = Vec::new();
    let mut recovery_encryptions = 0u64;
    let mut final_sets = received.clone();
    for (i, member) in group.members().iter().enumerate() {
        let have: std::collections::BTreeSet<usize> = received[i].iter().copied().collect();
        let missing: Vec<usize> = session
            .index
            .indices(member.id.digits())
            .filter(|e| !have.contains(e))
            .collect();
        if !missing.is_empty() {
            recovery_encryptions += missing.len() as u64;
            final_sets[i].extend(missing);
            recovering_members.push(i);
        }
    }
    LossyReport {
        received: received.iter().map(|v| v.len() as u64).collect(),
        copies_lost,
        recovering_members,
        recovery_encryptions,
        final_sets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_id::IdSpec;
    use rekey_keytree::{KeyRing, ModifiedKeyTree, RekeyArena};
    use rekey_net::{HostId, MatrixNetwork, Network, PlanetLabParams};
    use rekey_sim::seeded_rng;
    use rekey_table::PrimaryPolicy;

    type Rings = std::collections::HashMap<rekey_id::UserId, KeyRing>;

    fn fixture(
        n: usize,
        seed: u64,
    ) -> (MatrixNetwork, crate::Group, ModifiedKeyTree, Rings, SimRng) {
        let mut rng = seeded_rng(seed);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng);
        let spec = IdSpec::new(3, 8).unwrap();
        let mut group = crate::Group::new(
            &spec,
            HostId(net.host_count() - 1),
            4,
            PrimaryPolicy::SmallestRtt,
            crate::AssignParams::for_depth(3),
        );
        let mut tree = ModifiedKeyTree::new(&spec);
        let mut arena = RekeyArena::new();
        for h in 0..n {
            let out = group.join(HostId(h), &net, h as u64).unwrap();
            tree.batch_rekey(&[out.id], &[], &mut rng, &mut arena)
                .unwrap();
        }
        let rings: Rings = group
            .members()
            .iter()
            .map(|m| (m.id, KeyRing::new(m.id, tree.user_path_keys(&m.id))))
            .collect();
        (net, group, tree, rings, rng)
    }

    #[test]
    fn zero_loss_needs_no_recovery() {
        let (net, mut group, mut tree, _rings, mut rng) = fixture(30, 1);
        let leaver = group.members()[3].id;
        group.leave(&leaver, &net).unwrap();
        let mut arena = RekeyArena::new();
        let out = tree
            .batch_rekey(&[], &[leaver], &mut rng, &mut arena)
            .unwrap();
        let report =
            lossy_rekey_transport(&group.tmesh(), out.encryptions(), 0.0, &mut seeded_rng(7));
        assert_eq!(report.copies_lost, 0);
        assert!(report.recovering_members.is_empty());
        assert_eq!(report.recovery_encryptions, 0);
    }

    #[test]
    fn recovery_restores_every_member_key_state() {
        let (net, mut group, mut tree, mut rings, mut rng) = fixture(40, 2);
        let leavers: Vec<_> = group.members().iter().step_by(5).map(|m| m.id).collect();
        for l in &leavers {
            group.leave(l, &net).unwrap();
            rings.remove(l);
        }
        let mut arena = RekeyArena::new();
        let out = tree
            .batch_rekey(&[], &leavers, &mut rng, &mut arena)
            .unwrap();
        let mesh = group.tmesh();
        let report = lossy_rekey_transport(&mesh, out.encryptions(), 0.25, &mut seeded_rng(9));
        assert!(report.copies_lost > 0, "25% loss must drop something");
        assert!(!report.recovering_members.is_empty());

        // After multicast + recovery, every member can decrypt up to the
        // server's state from its pre-interval key ring.
        let spec = *group.spec();
        for (i, member) in mesh.members().iter().enumerate() {
            let ring = rings.get_mut(&member.id).expect("survivor has a ring");
            ring.absorb(report.final_sets[i].iter().map(|&e| &out.encryptions()[e]));
            assert!(
                ring.matches_path(&spec, tree.user_path_keys(&member.id)),
                "{} lacks keys after recovery",
                member.id
            );
        }

        // Recovery bandwidth is bounded: at most D+1 encryptions per
        // recovering member.
        assert!(
            report.recovery_encryptions
                <= (spec.depth() as u64 + 1) * report.recovering_members.len() as u64
        );
    }

    #[test]
    fn heavier_loss_recovers_more_members() {
        let (net, mut group, mut tree, _rings, mut rng) = fixture(40, 3);
        let leaver = group.members()[0].id;
        group.leave(&leaver, &net).unwrap();
        let mut arena = RekeyArena::new();
        let out = tree
            .batch_rekey(&[], &[leaver], &mut rng, &mut arena)
            .unwrap();
        let mesh = group.tmesh();
        let low = lossy_rekey_transport(&mesh, out.encryptions(), 0.05, &mut seeded_rng(11));
        let high = lossy_rekey_transport(&mesh, out.encryptions(), 0.5, &mut seeded_rng(11));
        assert!(high.recovering_members.len() >= low.recovering_members.len());
        assert!(high.copies_lost > low.copies_lost);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_invalid_loss() {
        let (_, group, _, _, _) = fixture(5, 4);
        let _ = lossy_rekey_transport(&group.tmesh(), &[], 1.5, &mut seeded_rng(1));
    }
}
