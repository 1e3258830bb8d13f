//! Multicast delivery over the NICE hierarchy.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rekey_net::{HostId, LinkLoad, Micros, Network};

use crate::hierarchy::NiceHierarchy;

/// One copy received by a member during a NICE multicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NiceDelivery {
    /// Arrival time (µs after the session start).
    pub arrival: Micros,
    /// Who transmitted the copy (`None` for the key server's unicast to the
    /// root in rekey sessions).
    pub from: Option<HostId>,
}

/// The outcome of one NICE multicast session.
#[derive(Debug, Clone)]
pub struct NiceOutcome {
    arrivals: HashMap<HostId, NiceDelivery>,
    duplicates: HashMap<HostId, u32>,
    forwarded: HashMap<HostId, u32>,
    transmissions: Vec<(HostId, HostId)>,
    server_unicast: Option<(HostId, HostId)>,
}

impl NiceOutcome {
    /// The first delivery to `host`, if reached.
    pub fn delivery(&self, host: HostId) -> Option<&NiceDelivery> {
        self.arrivals.get(&host)
    }

    /// Copies forwarded by `host` (the *user stress* metric).
    pub fn user_stress(&self, host: HostId) -> u32 {
        self.forwarded.get(&host).copied().unwrap_or(0)
    }

    /// Duplicate copies received by `host` (0 in a correct hierarchy).
    pub fn duplicates(&self, host: HostId) -> u32 {
        self.duplicates.get(&host).copied().unwrap_or(0)
    }

    /// Number of members reached.
    pub fn reached(&self) -> usize {
        self.arrivals.len()
    }

    /// All member-to-member transmissions (excluding the server's unicast
    /// to the root).
    #[cfg(test)]
    pub(crate) fn transmissions(&self) -> &[(HostId, HostId)] {
        &self.transmissions
    }

    /// The server-to-root unicast of a rekey session, if any.
    pub fn server_unicast(&self) -> Option<(HostId, HostId)> {
        self.server_unicast
    }

    /// Maps all transmissions (including the server unicast) onto physical
    /// links. `None` on link-less substrates.
    pub fn link_load(&self, net: &impl Network) -> Option<LinkLoad> {
        if net.link_count() == 0 {
            return None;
        }
        let mut load = LinkLoad::new(net.link_count());
        let all = self.server_unicast.iter().chain(self.transmissions.iter());
        for &(from, to) in all {
            load.add_path(&net.path_links(from, to)?, 1);
        }
        Some(load)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    at: Micros,
    seq: u64,
    to: HostId,
    from: Option<HostId>,
    /// The `(layer, cluster)` the copy was sent within; `None` for external
    /// injections (server unicast, data-sender unicast to its leader).
    via: Option<(usize, usize)>,
    /// For external injections: hosts the receiver must not send back to.
    suppress: Option<HostId>,
}

impl NiceHierarchy {
    fn run_delivery(
        &self,
        net: &impl Network,
        seed: Pending,
        server_unicast: Option<(HostId, HostId)>,
    ) -> NiceOutcome {
        let mut heap: BinaryHeap<Reverse<(Micros, u64, usize)>> = BinaryHeap::new();
        let mut pendings: Vec<Pending> = vec![seed];
        let mut seq = 1u64;
        heap.push(Reverse((pendings[0].at, 0, 0)));
        let mut outcome = NiceOutcome {
            arrivals: HashMap::new(),
            duplicates: HashMap::new(),
            forwarded: HashMap::new(),
            transmissions: Vec::new(),
            server_unicast,
        };
        while let Some(Reverse((at, _, idx))) = heap.pop() {
            let p = pendings[idx];
            if outcome.arrivals.contains_key(&p.to) {
                *outcome.duplicates.entry(p.to).or_insert(0) += 1;
                continue;
            }
            outcome.arrivals.insert(
                p.to,
                NiceDelivery {
                    arrival: at,
                    from: p.from,
                },
            );
            // Forward to all peers in all clusters this member belongs to,
            // except the cluster the copy arrived in (NICE data plane).
            for (layer, ci) in self.clusters_of(p.to) {
                if p.via == Some((layer, ci)) {
                    continue;
                }
                for &peer in &self.layer(layer)[ci].members {
                    if peer == p.to || Some(peer) == p.suppress || Some(peer) == p.from {
                        continue;
                    }
                    let delay = net.one_way(p.to, peer);
                    let next = Pending {
                        at: at + delay,
                        seq,
                        to: peer,
                        from: Some(p.to),
                        via: Some((layer, ci)),
                        suppress: None,
                    };
                    pendings.push(next);
                    heap.push(Reverse((next.at, seq, pendings.len() - 1)));
                    seq += 1;
                    *outcome.forwarded.entry(p.to).or_insert(0) += 1;
                    outcome.transmissions.push((p.to, peer));
                }
            }
        }
        outcome
    }

    /// Rekey transport (§4.1.1): "we let the key server unicast the message
    /// to the root of the NICE tree … The message then traverses the tree
    /// in a top-down fashion."
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy is empty.
    pub fn rekey_multicast(&self, net: &impl Network, server: HostId) -> NiceOutcome {
        let root = self.root().expect("rekey multicast on empty hierarchy");
        let seed = Pending {
            at: net.one_way(server, root),
            seq: 0,
            to: root,
            from: None,
            via: None,
            suppress: None,
        };
        self.run_delivery(net, seed, Some((server, root)))
    }

    /// Data transport (§4.1.2): "the sender unicasts the message to the
    /// leader of its local cluster. Then the message traverses the ALM tree
    /// in a bottom-up and then top-down fashion."
    ///
    /// The sender's own layer-0 peers are reached by the leader (the sender
    /// itself is suppressed as a recipient).
    ///
    /// # Panics
    ///
    /// Panics if `sender` is not a member.
    pub fn data_multicast(&self, net: &impl Network, sender: HostId) -> NiceOutcome {
        let (l0, c0) = *self
            .clusters_of(sender)
            .first()
            .unwrap_or_else(|| panic!("{sender} is not a member"));
        debug_assert_eq!(l0, 0, "clusters_of lists layer 0 first");
        let leader = self.layer(l0)[c0].leader;
        if leader == sender {
            // The sender leads its cluster: it starts the dissemination
            // itself (no unicast hop). It is the origin, not a receiver.
            let seed = Pending {
                at: 0,
                seq: 0,
                to: sender,
                from: None,
                via: None,
                suppress: None,
            };
            let mut outcome = self.run_delivery(net, seed, None);
            outcome.arrivals.remove(&sender);
            return outcome;
        }
        let seed = Pending {
            at: net.one_way(sender, leader),
            seq: 0,
            to: leader,
            from: Some(sender),
            via: None,
            suppress: Some(sender),
        };
        let mut outcome = self.run_delivery(net, seed, None);
        // Account the sender's unicast as one forwarded copy.
        *outcome.forwarded.entry(sender).or_insert(0) += 1;
        outcome.transmissions.push((sender, leader));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{NiceHierarchy, NiceParams};
    use rand::SeedableRng;
    use rekey_net::{MatrixNetwork, PlanetLabParams};

    fn build(n: usize, seed: u64) -> (NiceHierarchy, MatrixNetwork) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let mut h = NiceHierarchy::new(NiceParams::default());
        for i in 0..n {
            h.join(HostId(i), &net);
            h.check_invariants().unwrap();
        }
        (h, net)
    }

    #[test]
    fn rekey_reaches_everyone_exactly_once() {
        let (h, net) = build(14, 1);
        let server = HostId(15);
        let out = h.rekey_multicast(&net, server);
        assert_eq!(out.reached(), 14);
        for &m in &h.members() {
            assert_eq!(out.duplicates(m), 0, "duplicate at {m}");
        }
        assert_eq!(out.server_unicast().unwrap().0, server);
    }

    #[test]
    fn data_reaches_everyone_but_sender() {
        let (h, net) = build(12, 2);
        for sender in h.members() {
            let out = h.data_multicast(&net, sender);
            // The sender never receives its own message back…
            assert!(
                out.delivery(sender).is_none(),
                "sender {sender} got a copy back"
            );
            // …and everyone else gets exactly one copy.
            assert_eq!(out.reached(), 11);
            for &m in &h.members() {
                assert_eq!(out.duplicates(m), 0);
            }
        }
    }

    #[test]
    fn root_delivery_goes_through_leaders() {
        let (h, net) = build(14, 3);
        let out = h.rekey_multicast(&net, HostId(15));
        let root = h.root().unwrap();
        assert_eq!(out.delivery(root).unwrap().from, None);
        assert_eq!(
            out.delivery(root).unwrap().arrival,
            net.one_way(HostId(15), root)
        );
        // Arrival times are non-decreasing along forwarding edges.
        for &(from, to) in out.transmissions() {
            if let (Some(df), Some(dt)) = (out.delivery(from), out.delivery(to)) {
                assert!(dt.arrival >= df.arrival);
            }
        }
    }

    #[test]
    fn leave_keeps_delivery_complete() {
        let (mut h, net) = build(13, 4);
        h.leave(h.root().unwrap(), &net);
        h.check_invariants().unwrap();
        let out = h.rekey_multicast(&net, HostId(15));
        assert_eq!(out.reached(), 12);
    }

    #[test]
    fn singleton_group() {
        let (h, net) = build(1, 5);
        let out = h.rekey_multicast(&net, HostId(15));
        assert_eq!(out.reached(), 1);
        assert_eq!(out.user_stress(HostId(0)), 0);
    }
}
