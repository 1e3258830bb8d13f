#![cfg(test)]
//! The pre-index transport implementations: an O(N) member scan per hop
//! and an O(M) relatedness scan per composed copy (`split_for_neighbor`),
//! allocating one subset vector per edge. Kept verbatim as the correctness oracle the
//! equivalence property tests (`transport_equivalence`) compare the
//! indexed core against; test code only.

use std::collections::VecDeque;

use rekey_crypto::Encryption;
use rekey_id::IdPrefix;
use rekey_net::Network;
use rekey_tmesh::forward::{server_next_hops, user_next_hops};
use rekey_tmesh::TmeshGroup;

use crate::transport::{BandwidthReport, TransportOptions};

/// Which encryptions of `message` belong in the copy composed for the
/// `(s, j)`-primary neighbor `w` — the loop body of `REKEY-MESSAGE-SPLIT`
/// (Fig. 5), as the paper states it: an O(M) scan, where the transports
/// resolve the same set by range extraction from a [`crate::SplitIndex`].
pub(crate) fn split_for_neighbor(
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

/// [`crate::tmesh_rekey_transport`] as originally implemented: scan
/// per hop, subset vector per edge.
pub(crate) fn tmesh_rekey_transport(
    group: &TmeshGroup,
    net: &impl Network,
    message: &[Encryption],
    options: TransportOptions,
) -> BandwidthReport {
    let TransportOptions { split, detail } = options;
    let n = group.members().len();
    let mut report = BandwidthReport::new(n, net, detail);
    let full: Vec<usize> = (0..message.len()).collect();
    let index = |id: &rekey_id::UserId| {
        group
            .members()
            .iter()
            .position(|m| &m.id == id)
            .expect("neighbor is a member")
    };

    let mut queue: VecDeque<(usize, usize, Vec<usize>)> = VecDeque::new();
    for hop in server_next_hops(group.server_table()) {
        let to = index(&hop.neighbor.member.id);
        let prefix = hop.neighbor.member.id.prefix(hop.row + 1);
        let subset = if split {
            split_for_neighbor(&full, message, &prefix)
        } else {
            full.clone()
        };
        report.account_link(
            net,
            group.server_host(),
            group.members()[to].host,
            subset.len() as u64,
        );
        queue.push_back((to, hop.forward_level, subset));
    }

    while let Some((member, level, msg)) = queue.pop_front() {
        report.received[member] += msg.len() as u64;
        if let Some(sets) = report.received_sets.as_mut() {
            sets[member].extend(msg.iter().copied());
        }
        for hop in user_next_hops(group.table(member), level) {
            let to = index(&hop.neighbor.member.id);
            let prefix = hop.neighbor.member.id.prefix(hop.row + 1);
            let subset = if split {
                split_for_neighbor(&msg, message, &prefix)
            } else {
                msg.clone()
            };
            report.forwarded[member] += subset.len() as u64;
            report.account_link(
                net,
                group.members()[member].host,
                group.members()[to].host,
                subset.len() as u64,
            );
            queue.push_back((to, hop.forward_level, subset));
        }
    }
    report
}

/// [`crate::cluster_rekey_transport`] as originally implemented.
pub(crate) fn cluster_rekey_transport(
    group: &TmeshGroup,
    net: &impl Network,
    message: &[Encryption],
    options: TransportOptions,
    is_leader: &dyn Fn(usize) -> bool,
    cluster_of: &dyn Fn(usize) -> Vec<usize>,
) -> BandwidthReport {
    let TransportOptions { split, detail } = options;
    let n = group.members().len();
    let depth = group.spec().depth();
    let mut report = BandwidthReport::new(n, net, detail);
    let full: Vec<usize> = (0..message.len()).collect();
    let index = |id: &rekey_id::UserId| {
        group
            .members()
            .iter()
            .position(|m| &m.id == id)
            .expect("neighbor is a member")
    };

    let deliver_to_cluster = |report: &mut BandwidthReport, receiver: usize| {
        let mut leader = receiver;
        if !is_leader(receiver) {
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

    let mut queue: VecDeque<(usize, usize, Vec<usize>)> = VecDeque::new();
    for hop in server_next_hops(group.server_table()) {
        let to = index(&hop.neighbor.member.id);
        let prefix = hop.neighbor.member.id.prefix(hop.row + 1);
        let subset = if split {
            split_for_neighbor(&full, message, &prefix)
        } else {
            full.clone()
        };
        report.account_link(
            net,
            group.server_host(),
            group.members()[to].host,
            subset.len() as u64,
        );
        queue.push_back((to, hop.forward_level, subset));
    }

    while let Some((member, level, msg)) = queue.pop_front() {
        report.received[member] += msg.len() as u64;
        if let Some(sets) = report.received_sets.as_mut() {
            sets[member].extend(msg.iter().copied());
        }
        for hop in user_next_hops(group.table(member), level) {
            if hop.row + 1 >= depth {
                continue;
            }
            let to = index(&hop.neighbor.member.id);
            let prefix = hop.neighbor.member.id.prefix(hop.row + 1);
            let subset = if split {
                split_for_neighbor(&msg, message, &prefix)
            } else {
                msg.clone()
            };
            report.forwarded[member] += subset.len() as u64;
            report.account_link(
                net,
                group.members()[member].host,
                group.members()[to].host,
                subset.len() as u64,
            );
            queue.push_back((to, hop.forward_level, subset));
        }
        deliver_to_cluster(&mut report, member);
    }
    report
}
