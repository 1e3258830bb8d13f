//! The NICE and IP-multicast rekey transports, the baselines among the
//! seven protocols of Table 2 (the T-mesh ones are in `transport`).
//!
//! | Paper name | Key tree | Multicast | Cluster heuristic | Splitting |
//! |---|---|---|---|---|
//! | `P0` | original | NICE | – | no |
//! | `P0′` | original | NICE | – | yes |
//! | `P1` | modified | T-mesh | no | no |
//! | `P2` | modified | T-mesh | no | yes |
//! | `P3` | modified | T-mesh | yes | no |
//! | `P4` | modified | T-mesh | yes | yes |
//! | `P_m` | original | IP multicast (DVMRP) | – | no |
//!
//! To split in NICE (`P0′`), "users need to maintain states for O(N)
//! downstream users" (§4.3) — the harness plays that role by deriving
//! downstream need-sets from the NICE delivery tree, and (as in the paper)
//! this maintenance cost is not charged to the protocol.

use std::collections::{HashMap, HashSet};

use rekey_net::{HostId, LinkLoad, Network, RoutedNetwork};
use rekey_nice::NiceHierarchy;

use crate::transport::BandwidthReport;

/// Runs one rekey transport session over NICE (protocols `P0`/`P0′`).
///
/// `needs[h]` is the set of encryption indices host `h` needs (nodes on its
/// key-tree path); `total` is the full message size. With `split`, each
/// member forwards to a child only the encryptions needed somewhere in the
/// child's delivery subtree.
///
/// The returned report is keyed by position in `hosts`.
pub fn nice_rekey_transport(
    nice: &NiceHierarchy,
    net: &impl Network,
    server: HostId,
    hosts: &[HostId],
    needs: &HashMap<HostId, HashSet<usize>>,
    total: usize,
    split: bool,
) -> BandwidthReport {
    let outcome = nice.rekey_multicast(net, server);
    let host_index: HashMap<HostId, usize> =
        hosts.iter().enumerate().map(|(i, &h)| (h, i)).collect();
    let mut report = BandwidthReport {
        received: vec![0; hosts.len()],
        forwarded: vec![0; hosts.len()],
        link_load: (net.link_count() > 0).then(|| LinkLoad::new(net.link_count())),
        received_sets: None,
    };

    // Build the delivery tree (children lists) from the NICE outcome.
    let mut children: HashMap<HostId, Vec<HostId>> = HashMap::new();
    let root = outcome.server_unicast().expect("rekey session").1;
    for &h in hosts {
        if let Some(d) = outcome.delivery(h) {
            if let Some(parent) = d.from {
                children.entry(parent).or_default().push(h);
            }
        }
    }

    // Bottom-up subtree need-sets (only used when splitting).
    fn subtree_needs(
        h: HostId,
        children: &HashMap<HostId, Vec<HostId>>,
        needs: &HashMap<HostId, HashSet<usize>>,
        memo: &mut HashMap<HostId, HashSet<usize>>,
    ) -> HashSet<usize> {
        if let Some(s) = memo.get(&h) {
            return s.clone();
        }
        let mut set = needs.get(&h).cloned().unwrap_or_default();
        for &c in children.get(&h).map(Vec::as_slice).unwrap_or(&[]) {
            set.extend(subtree_needs(c, children, needs, memo));
        }
        memo.insert(h, set.clone());
        set
    }
    let mut memo = HashMap::new();

    // Server unicast to the root carries the full message.
    let root_units = if split {
        subtree_needs(root, &children, needs, &mut memo).len() as u64
    } else {
        total as u64
    };
    if let (Some(load), Some(path)) = (report.link_load.as_mut(), net.path_links(server, root)) {
        load.add_path(&path, root_units);
    }
    report.received[host_index[&root]] += root_units;

    // Each delivery-tree edge carries the (possibly split) message.
    let mut stack = vec![root];
    while let Some(p) = stack.pop() {
        for &c in children.get(&p).map(Vec::as_slice).unwrap_or(&[]) {
            let units = if split {
                subtree_needs(c, &children, needs, &mut memo).len() as u64
            } else {
                total as u64
            };
            report.forwarded[host_index[&p]] += units;
            report.received[host_index[&c]] += units;
            if let (Some(load), Some(path)) = (report.link_load.as_mut(), net.path_links(p, c)) {
                load.add_path(&path, units);
            }
            stack.push(c);
        }
    }
    report
}

/// Runs one rekey transport session over IP multicast (protocol `P_m`):
/// every receiver gets the full message; each shortest-path-tree link
/// carries it exactly once; end hosts forward nothing.
pub fn ipmc_rekey_transport(
    net: &RoutedNetwork,
    server: HostId,
    hosts: &[HostId],
    total: usize,
) -> BandwidthReport {
    let tree = rekey_ipmc::source_tree(net, server, hosts);
    BandwidthReport {
        received: vec![total as u64; hosts.len()],
        forwarded: vec![0; hosts.len()],
        link_load: Some(tree.link_load(net.graph().link_count(), total as u64)),
        received_sets: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rekey_net::gtitm::{generate, GtItmParams};
    use rekey_nice::NiceParams;

    fn setup(n: usize, seed: u64) -> (RoutedNetwork, Vec<HostId>, NiceHierarchy) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = generate(&GtItmParams::small(), &mut rng);
        let net = RoutedNetwork::random_attachment(topo.into_graph(), n + 1, &mut rng);
        let hosts: Vec<HostId> = (0..n).map(HostId).collect();
        let mut nice = NiceHierarchy::new(NiceParams::default());
        for &h in &hosts {
            nice.join(h, &net);
        }
        (net, hosts, nice)
    }

    #[test]
    fn nice_no_split_floods_full_message() {
        let (net, hosts, nice) = setup(12, 1);
        let needs = HashMap::new();
        let report = nice_rekey_transport(&nice, &net, HostId(12), &hosts, &needs, 100, false);
        assert!(report.received.iter().all(|&r| r == 100));
        let fan: u64 = report.forwarded.iter().sum();
        assert_eq!(
            fan,
            100 * (hosts.len() as u64 - 1),
            "one full copy per non-root member"
        );
    }

    #[test]
    fn nice_split_carries_only_subtree_needs() {
        let (net, hosts, nice) = setup(12, 2);
        // Each host needs exactly one private encryption.
        let needs: HashMap<HostId, HashSet<usize>> =
            hosts.iter().map(|&h| (h, HashSet::from([h.0]))).collect();
        let report = nice_rekey_transport(&nice, &net, HostId(12), &hosts, &needs, 12, true);
        // Everyone receives at least its own encryption, far less than 12
        // in total across interior nodes.
        assert!(report.received.iter().all(|&r| r >= 1));
        let total_no_split: u64 = 12 * hosts.len() as u64;
        assert!(report.received.iter().sum::<u64>() < total_no_split);
        // Leaf members receive exactly their own encryption.
        let min = report.received.iter().min().copied().unwrap();
        assert_eq!(min, 1);
    }

    #[test]
    fn ipmc_receivers_get_everything_links_carry_once() {
        let (net, hosts, _) = setup(10, 3);
        let report = ipmc_rekey_transport(&net, HostId(10), &hosts, 250);
        assert!(report.received.iter().all(|&r| r == 250));
        assert!(report.forwarded.iter().all(|&f| f == 0));
        let load = report.link_load.unwrap();
        assert_eq!(load.max(), 250, "tree links carry the message exactly once");
    }
}
