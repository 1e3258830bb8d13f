//! NICE clusters: bounded-size member sets led by their topological center.

use rekey_net::{HostId, Network};

/// One NICE cluster: a set of hosts and its leader.
///
/// NICE keeps cluster sizes in `[k, 3k−1]` (the paper uses "three to eight
/// users", i.e. `k = 3`); the leader is the *graph-theoretic center* of the
/// cluster — the member minimising the maximum RTT to the others.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Cluster members, including the leader.
    pub members: Vec<HostId>,
    /// The cluster leader.
    pub leader: HostId,
}

impl Cluster {
    /// Creates a singleton cluster.
    pub(crate) fn singleton(host: HostId) -> Cluster {
        Cluster {
            members: vec![host],
            leader: host,
        }
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` iff the cluster has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `true` iff `host` is a member.
    pub(crate) fn contains(&self, host: HostId) -> bool {
        self.members.contains(&host)
    }

    /// The graph-theoretic center: the member with the smallest maximum RTT
    /// to the other members (ties broken by mean RTT, then by host ID for
    /// determinism).
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster.
    pub(crate) fn center(&self, net: &impl Network) -> HostId {
        assert!(!self.members.is_empty(), "center of empty cluster");
        *self
            .members
            .iter()
            .min_by_key(|&&candidate| {
                let mut max = 0;
                let mut sum = 0;
                for &other in &self.members {
                    let rtt = net.rtt(candidate, other);
                    max = max.max(rtt);
                    sum += rtt;
                }
                (max, sum, candidate.0)
            })
            .expect("non-empty")
    }

    /// Re-elects the leader as the current center.
    pub(crate) fn refresh_leader(&mut self, net: &impl Network) {
        self.leader = self.center(net);
    }

    /// Splits the cluster into two of roughly equal size, seeding with the
    /// two farthest-apart members and assigning the rest by proximity
    /// (NICE's split heuristic). Leaders of both halves are re-elected.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer than two members.
    pub(crate) fn split(&self, net: &impl Network) -> (Cluster, Cluster) {
        assert!(
            self.members.len() >= 2,
            "cannot split a cluster of {}",
            self.members.len()
        );
        // Farthest pair (quadratic; clusters are ≤ 3k−1 members).
        let (mut seed_a, mut seed_b, mut worst) = (self.members[0], self.members[1], 0);
        for (i, &a) in self.members.iter().enumerate() {
            for &b in &self.members[i + 1..] {
                let rtt = net.rtt(a, b);
                if rtt >= worst {
                    worst = rtt;
                    seed_a = a;
                    seed_b = b;
                }
            }
        }
        let mut half_a = vec![seed_a];
        let mut half_b = vec![seed_b];
        let mut rest: Vec<HostId> = self
            .members
            .iter()
            .copied()
            .filter(|&m| m != seed_a && m != seed_b)
            .collect();
        // Assign by proximity, keeping sizes balanced (|difference| ≤ 1).
        rest.sort_by_key(|&m| {
            let da = net.rtt(m, seed_a) as i64;
            let db = net.rtt(m, seed_b) as i64;
            (da - db).abs()
        });
        rest.reverse(); // most decisive assignments first
        let cap = self.members.len().div_ceil(2);
        for m in rest {
            let prefer_a = net.rtt(m, seed_a) <= net.rtt(m, seed_b);
            if (prefer_a && half_a.len() < cap) || half_b.len() >= cap {
                half_a.push(m);
            } else {
                half_b.push(m);
            }
        }
        let mut a = Cluster {
            members: half_a,
            leader: seed_a,
        };
        let mut b = Cluster {
            members: half_b,
            leader: seed_b,
        };
        a.refresh_leader(net);
        b.refresh_leader(net);
        (a, b)
    }

    /// Maximum RTT from the leader to any member (the cluster "radius").
    #[cfg(test)]
    pub(crate) fn radius(&self, net: &impl Network) -> rekey_net::Micros {
        self.members
            .iter()
            .map(|&m| net.rtt(self.leader, m))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_net::MatrixNetwork;

    /// 6 hosts: 0-2 close together, 3-5 close together, far across.
    fn two_sites() -> MatrixNetwork {
        let near = 2;
        let far = 100;
        let n = 6;
        let mut rtt = vec![vec![0u64; n]; n];
        for (i, row) in rtt.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i != j {
                    *cell = if (i < 3) == (j < 3) { near } else { far };
                }
            }
        }
        MatrixNetwork::from_matrix(rtt, vec![0; n])
    }

    #[test]
    fn center_minimises_max_rtt() {
        let net = two_sites();
        let c = Cluster {
            members: vec![HostId(0), HostId(1), HostId(3)],
            leader: HostId(3),
        };
        // Hosts 0 and 1 both have max RTT 100 (to 3); host 3 has max 100
        // too, but 0/1 win on mean; tie between 0 and 1 broken by id.
        assert_eq!(c.center(&net), HostId(0));
    }

    #[test]
    fn split_separates_sites() {
        let net = two_sites();
        let c = Cluster {
            members: (0..6).map(HostId).collect(),
            leader: HostId(0),
        };
        let (a, b) = c.split(&net);
        assert_eq!(a.len() + b.len(), 6);
        assert!((a.len() as i64 - b.len() as i64).abs() <= 1);
        let site = |c: &Cluster| {
            c.members
                .iter()
                .map(|h| usize::from(h.0 >= 3))
                .sum::<usize>()
        };
        // Each half must be all-one-site (0 or len matches).
        assert!(site(&a) == 0 || site(&a) == a.len());
        assert!(site(&b) == 0 || site(&b) == b.len());
        assert!(a.radius(&net) <= 2);
        assert!(b.radius(&net) <= 2);
    }

    #[test]
    fn singleton_properties() {
        let net = two_sites();
        let c = Cluster::singleton(HostId(4));
        assert_eq!(c.len(), 1);
        assert_eq!(c.center(&net), HostId(4));
        assert_eq!(c.radius(&net), 0);
        assert!(c.contains(HostId(4)));
        assert!(!c.contains(HostId(0)));
    }
}
