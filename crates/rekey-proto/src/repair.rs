//! Broadcast-candidate neighbor-table repair (§3.2), for the
//! message-by-message join protocol ([`crate::distributed`]) alone.
//!
//! When a member departs, every surviving member must drop the departed
//! record from the `(i, j)`-entry that held it and refill that entry to
//! keep tables K-consistent. This routine computes — once per departure —
//! a candidate set any receiver can refill from: for every ID level `c`
//! (deepest first), up to `K` surviving members whose IDs share the first
//! `c` digits with the departed ID; `distributed.rs` broadcasts it in its
//! `MemberLeft`.
//!
//! The event-driven runtime does not use it: there the key server's
//! [`Group`](crate::Group) repairs the tables itself and pushes each
//! changed one to its owner, so a member's table is exactly the server's.

use rekey_id::UserId;

/// Replacement candidates for `departed`, drawn from `members`: per level
/// `c` from `depth − 1` down to `0`, up to `k` members sharing the first
/// `c` digits with `departed`, deduplicated across levels. A record whose
/// ID equals `departed` is never picked, so a caller racing a departure
/// broadcast (the membership snapshot still lists the failed node) cannot
/// be handed the failed node as its own replacement. Iteration order of
/// `members` is preserved within a level, so a deterministic input yields
/// a deterministic candidate list.
pub(crate) fn replacement_candidates<'a, T, I>(
    depth: usize,
    k: usize,
    departed: &UserId,
    members: I,
    id_of: impl Fn(&T) -> &UserId,
) -> Vec<&'a T>
where
    I: Iterator<Item = &'a T> + Clone,
{
    let mut out: Vec<&'a T> = Vec::new();
    for level in (0..depth).rev() {
        let prefix = departed.prefix(level);
        let mut picked = 0;
        for r in members.clone() {
            if picked >= k {
                break;
            }
            let id = id_of(r);
            if id != departed && prefix.is_prefix_of_id(id) && !out.iter().any(|x| id_of(x) == id) {
                out.push(r);
                picked += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_id::IdSpec;

    fn uid(spec: &IdSpec, digits: [u16; 3]) -> UserId {
        UserId::new(spec, digits.to_vec()).unwrap()
    }

    #[test]
    fn deeper_levels_are_picked_first_and_deduped() {
        let spec = IdSpec::new(3, 4).unwrap();
        let departed = uid(&spec, [1, 2, 3]);
        let members = [
            uid(&spec, [0, 0, 0]),
            uid(&spec, [1, 0, 0]),
            uid(&spec, [1, 2, 0]), // shares 2 digits: level-2 pick
            uid(&spec, [1, 2, 1]), // shares 2 digits: level-2 pick
            uid(&spec, [3, 3, 3]),
        ];
        let picks = replacement_candidates(3, 1, &departed, members.iter(), |id| id);
        // Level 2 picks [1,2,0]; level 1 (prefix [1]) skips the already
        // picked [1,2,0] and takes [1,0,0]; level 0 takes [0,0,0].
        assert_eq!(
            picks,
            vec![&members[2], &members[1], &members[0]],
            "deepest level first, no duplicates"
        );
    }

    #[test]
    fn respects_k_per_level() {
        let spec = IdSpec::new(2, 4).unwrap();
        let departed = UserId::new(&spec, vec![0, 0]).unwrap();
        let members: Vec<UserId> = (1..4)
            .map(|d| UserId::new(&spec, vec![0, d]).unwrap())
            .collect();
        let picks = replacement_candidates(2, 2, &departed, members.iter(), |id| id);
        // Level 1 takes two of the three siblings; level 0 takes the third.
        assert_eq!(picks.len(), 3);
        let one = replacement_candidates(2, 1, &departed, members.iter(), |id| id);
        assert_eq!(one.len(), 2);
    }

    #[test]
    fn empty_membership_yields_no_candidates() {
        let spec = IdSpec::new(2, 4).unwrap();
        let departed = UserId::new(&spec, vec![0, 0]).unwrap();
        let members: Vec<UserId> = Vec::new();
        assert!(replacement_candidates(2, 4, &departed, members.iter(), |id| id).is_empty());
    }

    /// A level with no prefix-sharing survivor (an empty table row)
    /// contributes nothing, but shallower levels still fill in.
    #[test]
    fn empty_level_falls_through_to_shallower_levels() {
        let spec = IdSpec::new(3, 4).unwrap();
        let departed = uid(&spec, [1, 2, 3]);
        // Nobody shares the 2-digit prefix [1,2]; one member shares [1].
        let members = [uid(&spec, [1, 0, 0]), uid(&spec, [2, 2, 2])];
        let picks = replacement_candidates(3, 2, &departed, members.iter(), |id| id);
        assert_eq!(picks, vec![&members[0], &members[1]]);
    }

    /// Callers pass a pre-filtered iterator (e.g. suspects removed); when
    /// the filter removes everyone, the candidate list is empty rather
    /// than falling back to suspect records.
    #[test]
    fn fully_filtered_membership_yields_no_candidates() {
        let spec = IdSpec::new(2, 4).unwrap();
        let departed = UserId::new(&spec, vec![0, 0]).unwrap();
        let members: Vec<UserId> = (1..4)
            .map(|d| UserId::new(&spec, vec![0, d]).unwrap())
            .collect();
        let suspects: Vec<&UserId> = members.iter().collect();
        let picks = replacement_candidates(
            2,
            2,
            &departed,
            members.iter().filter(|m| !suspects.contains(m)),
            |id| id,
        );
        assert!(picks.is_empty());
    }

    /// A membership snapshot that still lists the departed member (the
    /// race between a failure notice and the departure broadcast) never
    /// hands the departed node back as its own replacement.
    #[test]
    fn departed_member_is_never_its_own_replacement() {
        let spec = IdSpec::new(2, 4).unwrap();
        let departed = UserId::new(&spec, vec![0, 0]).unwrap();
        let members = [departed, UserId::new(&spec, vec![0, 1]).unwrap()];
        let picks = replacement_candidates(2, 4, &departed, members.iter(), |id| id);
        assert_eq!(picks, vec![&members[1]], "departed id must be skipped");

        // Even when the departed id is the *only* entry at every level.
        let only_self = [departed];
        assert!(replacement_candidates(2, 4, &departed, only_self.iter(), |id| id).is_empty());
    }
}
