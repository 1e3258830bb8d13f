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
//! preserved verbatim in [`mod@reference`] as the correctness oracle and
//! benchmark baseline.

use rekey_crypto::Encryption;
use rekey_id::IdPrefix;
use rekey_net::Network;
use rekey_tmesh::forward::{server_next_hops, user_next_hops};
use rekey_tmesh::TmeshGroup;

use crate::transport::{BandwidthReport, RekeySession, TransportOptions};

/// Which encryptions of `message` belong in the copy composed for the
/// `(s, j)`-primary neighbor `w` — the loop body of `REKEY-MESSAGE-SPLIT`
/// (Fig. 5), as the paper states it.
///
/// This is the naive O(M) scan; the transports resolve the same set by
/// range extraction from a [`crate::SplitIndex`]. Kept public as the
/// oracle the equivalence tests and benchmarks compare against.
pub fn split_for_neighbor(
    message: &[usize],
    all: &[Encryption],
    w_prefix: &IdPrefix,
) -> Vec<usize> {
    message
        .iter()
        .copied()
        .filter(|&e| all[e].id().is_related(w_prefix))
        .collect()
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
    let n = group.members().len();
    let mut report = BandwidthReport::new(n, net, options.detail);
    let mut session = RekeySession::new(group, message, options.split);

    for hop in server_next_hops(group.server_table()) {
        let to = session.members.of_hop(&hop);
        let payload = session.initial_payload(&hop);
        let units = session.payload_len(payload);
        report.account_link(net, group.server_host(), session.host(to), units);
        session
            .queue
            .push_back((to, hop.forward_level, payload, units));
    }

    while let Some((member, level, payload, units)) = session.queue.pop_front() {
        report.received[member] += units;
        if let Some(sets) = report.received_sets.as_mut() {
            session.payload_extend(payload, &mut sets[member]);
        }
        for hop in user_next_hops(group.table(member), level) {
            let to = session.members.of_hop(&hop);
            let next = session.payload_for(payload, &hop);
            let next_units = session.payload_len(next);
            report.forwarded[member] += next_units;
            report.account_link(net, session.host(member), session.host(to), next_units);
            session
                .queue
                .push_back((to, hop.forward_level, next, next_units));
        }
    }
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
    let n = group.members().len();
    let depth = group.spec().depth();
    let mut report = BandwidthReport::new(n, net, options.detail);
    let mut session = RekeySession::new(group, message, options.split);

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
                report.account_link(
                    net,
                    group.members()[receiver].host,
                    group.members()[l].host,
                    units,
                );
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
                report.account_link(
                    net,
                    group.members()[leader].host,
                    group.members()[peer].host,
                    1,
                );
            }
        }
    };

    for hop in server_next_hops(group.server_table()) {
        let to = session.members.of_hop(&hop);
        let payload = session.initial_payload(&hop);
        let units = session.payload_len(payload);
        report.account_link(net, group.server_host(), session.host(to), units);
        session
            .queue
            .push_back((to, hop.forward_level, payload, units));
    }

    while let Some((member, level, payload, units)) = session.queue.pop_front() {
        report.received[member] += units;
        if let Some(sets) = report.received_sets.as_mut() {
            session.payload_extend(payload, &mut sets[member]);
        }
        // Forward only at levels < D − 1 (Appendix B): the bottom row is
        // replaced by the leader's pairwise unicasts.
        for hop in user_next_hops(group.table(member), level) {
            if hop.row + 1 >= depth {
                continue;
            }
            let to = session.members.of_hop(&hop);
            let next = session.payload_for(payload, &hop);
            let next_units = session.payload_len(next);
            report.forwarded[member] += next_units;
            report.account_link(net, session.host(member), session.host(to), next_units);
            session
                .queue
                .push_back((to, hop.forward_level, next, next_units));
        }
        deliver_to_cluster(&mut report, member);
    }
    report
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod transport_equivalence;
