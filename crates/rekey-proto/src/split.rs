//! Rekey transport over T-mesh with the `REKEY-MESSAGE-SPLIT` routine
//! (Fig. 5) and the cluster-heuristic delivery of Appendix B.
//!
//! The splitting rule: the copy composed for the `(s, j)`-primary neighbor
//! `w` contains encryption `e` iff `e.ID` is a prefix of `w.ID[0 : s]` or
//! `w.ID[0 : s]` is a prefix of `e.ID` — in this crate's indexing, iff
//! `e.id().is_related(&w.prefix(s + 1))`. Theorem 2 proves this keeps
//! exactly the encryptions needed by `w` or its downstream users.
//!
//! The transports here run on the indexed core of [`crate::transport`]:
//! hop payloads are described by their split prefix and resolved against a
//! [`crate::SplitIndex`] built once per session, so each hop costs
//! O(D log M) binary searching instead of an O(M) scan, and no per-edge
//! subset vector is allocated. The former scan-per-hop implementation is
//! preserved verbatim in [`mod@reference`] as the correctness oracle,
//! together with Fig. 5's per-copy scan `split_for_neighbor`.

use rekey_crypto::Encryption;
use rekey_net::Network;
use rekey_tmesh::TmeshGroup;

use crate::transport::{BandwidthReport, Payload, RekeySession, TransportOptions};

/// Charges one copy of `payload` from `from` (the server when `None`) to
/// `to`: the sender's forwarding count and every link on the way.
/// Returns the copy's size in encryptions.
fn charge_copy(
    session: &RekeySession<'_>,
    report: &mut BandwidthReport,
    net: &impl Network,
    from: Option<usize>,
    to: usize,
    payload: Payload,
) -> u64 {
    let units = session.payload_len(payload);
    let sender = match from {
        Some(member) => {
            report.forwarded[member] += units;
            session.host(member)
        }
        None => session.group.server_host(),
    };
    report.account_link(net, sender, session.host(to), units);
    units
}

/// Credits `member` with one received copy of `units` encryptions, and
/// records which ones with [`TransportOptions::detail`].
fn credit_copy(
    session: &RekeySession<'_>,
    report: &mut BandwidthReport,
    member: usize,
    payload: Payload,
    units: u64,
) {
    report.received[member] += units;
    if let Some(sets) = report.received_sets.as_mut() {
        session.payload_extend(payload, &mut sets[member]);
    }
}

/// Runs one rekey transport session over T-mesh (protocols `P1`/`P2` of
/// Table 2): the key server multicasts `message`; with
/// [`TransportOptions::split`] the `REKEY-MESSAGE-SPLIT` routine composes
/// a separate copy per next hop, otherwise every copy carries the whole
/// message. [`TransportOptions::detail`] also records exactly which
/// encryptions each member received (for correctness tests).
pub fn tmesh_rekey_transport(
    group: &TmeshGroup,
    net: &impl Network,
    message: &[Encryption],
    options: TransportOptions,
) -> BandwidthReport {
    let mut report = BandwidthReport::new(group.members().len(), net, options.detail);
    let session = RekeySession::new(group, message, options.split);
    session.walk(
        &mut report,
        |report, from, to, _, payload| Some(charge_copy(&session, report, net, from, to, payload)),
        |report, member, payload, units| credit_copy(&session, report, member, payload, units),
    );
    report
}

/// Runs one rekey transport session under the cluster rekeying heuristic
/// (protocols `P3`/`P4` of Table 2, Appendix B):
///
/// * the multicast proceeds as usual for forwarding levels `< D − 1`, so
///   exactly one member per bottom cluster receives the message (the
///   cluster leader when tables use
///   [`rekey_table::PrimaryPolicy::EarliestJoinAtBottom`]);
/// * a non-leader receiver forwards the message to its cluster leader;
/// * the leader extracts the new group key and unicasts one
///   pairwise-encrypted copy (counted as one encryption) to each other
///   cluster member.
///
/// `is_leader(i)` tells whether member `i` currently leads its cluster and
/// `cluster_of(i)` lists the member indices of `i`'s cluster. With
/// [`TransportOptions::detail`], `received_sets` records the multicast
/// copies only — the leader's pairwise unicasts carry the group key under
/// a pairwise key, not message encryptions.
pub fn cluster_rekey_transport(
    group: &TmeshGroup,
    net: &impl Network,
    message: &[Encryption],
    options: TransportOptions,
    is_leader: &dyn Fn(usize) -> bool,
    cluster_of: &dyn Fn(usize) -> Vec<usize>,
) -> BandwidthReport {
    let depth = group.spec().depth();
    let mut report = BandwidthReport::new(group.members().len(), net, options.detail);
    let session = RekeySession::new(group, message, options.split);

    // The leader (or designated receiver) fans the group key out to its
    // cluster over pairwise keys.
    let deliver_to_cluster = |report: &mut BandwidthReport, receiver: usize| {
        let mut leader = receiver;
        if !is_leader(receiver) {
            // Forward the whole received copy to the cluster leader.
            let peers = cluster_of(receiver);
            if let Some(&l) = peers.iter().find(|&&m| is_leader(m)) {
                report.forwarded[receiver] += report.received[receiver];
                let units = report.received[receiver];
                report.account_link(net, session.host(receiver), session.host(l), units);
                report.received[l] += units;
                leader = l;
            }
        }
        for peer in cluster_of(leader) {
            if peer == leader {
                continue;
            }
            // One pairwise-wrapped group key per member.
            if report.received[peer] == 0 {
                report.forwarded[leader] += 1;
                report.received[peer] += 1;
                report.account_link(net, session.host(leader), session.host(peer), 1);
            }
        }
    };

    session.walk(
        &mut report,
        // Forward only at levels < D − 1 (Appendix B): the bottom row is
        // replaced by the leader's pairwise unicasts.
        |report, from, to, hop, payload| {
            (from.is_none() || hop.row + 1 < depth)
                .then(|| charge_copy(&session, report, net, from, to, payload))
        },
        |report, member, payload, units| {
            credit_copy(&session, report, member, payload, units);
            deliver_to_cluster(report, member);
        },
    );
    report
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod transport_equivalence;
