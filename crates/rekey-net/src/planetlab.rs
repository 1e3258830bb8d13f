//! Synthetic PlanetLab-style RTT matrices.
//!
//! The paper measured the all-pairs RTT among 227 PlanetLab hosts (2004-08-12)
//! spread over North America, Europe, Asia and Australia, and used the matrix
//! directly: "we let each member … correspond to a PlanetLab host, and set the
//! RTT between each pair of members to be the same as the RTT between the
//! corresponding two PlanetLab hosts" (§4). That measurement file is not
//! available, so we synthesise a matrix with the same *structure*: hosts are
//! grouped into sites inside continents, and pairwise RTT follows an additive
//! tree-like model (intra-site ≪ intra-continent ≪ inter-continent) with
//! multiplicative jitter. See DESIGN.md ("Substitutions").

use rand::Rng;

use crate::{HostId, Micros, Network};

/// Parameters for the synthetic PlanetLab matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanetLabParams {
    /// Hosts per continent, in order (the defaults model NA/EU/Asia/AU and
    /// sum to the paper's 227 hosts).
    pub continent_hosts: Vec<usize>,
    /// Base inter-continent RTTs in microseconds, indexed `[i][j]`
    /// (symmetric; the diagonal is the intra-continent backbone RTT).
    pub continent_base: Vec<Vec<Micros>>,
    /// Range of a site's RTT offset to its continental backbone.
    pub site_offset: (Micros, Micros),
    /// Range of intra-site host-to-host RTTs.
    pub intra_site: (Micros, Micros),
    /// Range of hosts per site.
    pub site_size: (usize, usize),
    /// Per-host access-link RTT range (host ↔ gateway router), so that
    /// end-host RTT `h(u,w)` exceeds gateway RTT `r(u,w)` as in §3.1.2.
    pub access: (Micros, Micros),
    /// Multiplicative jitter bound (e.g. `0.10` ⇒ each pair RTT is scaled by
    /// a factor uniform in `[0.9, 1.1]`).
    pub jitter: f64,
    /// Probability that a pair enjoys a routing *shortcut* (direct path much
    /// faster than the hierarchical model predicts). Real RTT matrices are
    /// not tree metrics; shortcuts and detours reproduce the
    /// triangle-inequality violations that make relative delay penalties
    /// realistic.
    pub shortcut_prob: f64,
    /// Scale range applied to shortcut pairs (e.g. `(0.4, 0.8)`).
    pub shortcut_scale: (f64, f64),
    /// Probability that a pair suffers a routing *detour*.
    pub detour_prob: f64,
    /// Scale range applied to detour pairs (e.g. `(1.3, 2.5)`).
    pub detour_scale: (f64, f64),
}

const MS: Micros = 1_000;

impl Default for PlanetLabParams {
    fn default() -> PlanetLabParams {
        PlanetLabParams {
            continent_hosts: vec![120, 60, 35, 12],
            continent_base: vec![
                // NA        EU        Asia      AU
                vec![8 * MS, 95 * MS, 160 * MS, 175 * MS],
                vec![95 * MS, 8 * MS, 250 * MS, 280 * MS],
                vec![160 * MS, 250 * MS, 12 * MS, 130 * MS],
                vec![175 * MS, 280 * MS, 130 * MS, 6 * MS],
            ],
            site_offset: (2 * MS, 30 * MS),
            intra_site: (500, 3 * MS),
            site_size: (1, 4),
            access: (200, 3 * MS),
            jitter: 0.15,
            shortcut_prob: 0.06,
            shortcut_scale: (0.55, 0.85),
            detour_prob: 0.14,
            detour_scale: (1.3, 2.4),
        }
    }
}

impl PlanetLabParams {
    /// A small matrix (16 hosts over two continents) for unit tests.
    pub fn small() -> PlanetLabParams {
        PlanetLabParams {
            continent_hosts: vec![10, 6],
            continent_base: vec![vec![8 * MS, 95 * MS], vec![95 * MS, 8 * MS]],
            ..PlanetLabParams::default()
        }
    }

    /// Total number of hosts.
    pub fn host_count(&self) -> usize {
        self.continent_hosts.iter().sum()
    }
}

/// A network defined purely by a symmetric host-to-host RTT matrix, as in
/// the paper's PlanetLab experiments.
///
/// One-way delay between two hosts is half their RTT (§4: "We set one-way
/// delay between two members to be half of their RTT"). There is no router
/// graph, so [`Network::path_links`] returns `None` and link stress is not
/// defined for this substrate (matching the paper, which evaluates link
/// stress only on GT-ITM).
#[derive(Debug, Clone)]
pub struct MatrixNetwork {
    n: usize,
    /// Gateway-to-gateway RTT, flattened row-major.
    gateway_rtt: Vec<Micros>,
    /// Per-host access-link RTT (host ↔ its gateway router).
    access: Vec<Micros>,
    /// Continent index per host; only the tests read it.
    #[cfg(test)]
    continent: Vec<usize>,
}

impl MatrixNetwork {
    /// Builds a network from an explicit symmetric gateway RTT matrix and
    /// per-host access RTTs.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square/symmetric with a zero diagonal, or
    /// if `access.len()` differs from the matrix dimension.
    pub fn from_matrix(gateway_rtt: Vec<Vec<Micros>>, access: Vec<Micros>) -> MatrixNetwork {
        let n = gateway_rtt.len();
        assert_eq!(access.len(), n, "one access delay per host");
        let mut flat = Vec::with_capacity(n * n);
        for (i, row) in gateway_rtt.iter().enumerate() {
            assert_eq!(row.len(), n, "matrix must be square");
            assert_eq!(row[i], 0, "diagonal must be zero");
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, gateway_rtt[j][i], "matrix must be symmetric");
                flat.push(v);
            }
        }
        MatrixNetwork {
            n,
            gateway_rtt: flat,
            access,
            #[cfg(test)]
            continent: vec![0; n],
        }
    }

    /// Synthesises a PlanetLab-like RTT matrix.
    pub fn synthetic_planetlab<R: Rng + ?Sized>(
        params: &PlanetLabParams,
        rng: &mut R,
    ) -> MatrixNetwork {
        let n = params.host_count();
        assert!(n > 0, "need at least one host");
        assert_eq!(
            params.continent_base.len(),
            params.continent_hosts.len(),
            "continent_base must match continent_hosts"
        );

        // Assign hosts to sites inside continents.
        let mut continent = Vec::with_capacity(n);
        let mut site = Vec::with_capacity(n);
        let mut site_offsets: Vec<Micros> = Vec::new();
        let mut site_continent: Vec<usize> = Vec::new();
        for (c, &hosts) in params.continent_hosts.iter().enumerate() {
            let mut remaining = hosts;
            while remaining > 0 {
                let size = rng
                    .gen_range(params.site_size.0..=params.site_size.1)
                    .min(remaining);
                let site_id = site_offsets.len();
                site_offsets.push(rng.gen_range(params.site_offset.0..=params.site_offset.1));
                site_continent.push(c);
                for _ in 0..size {
                    continent.push(c);
                    site.push(site_id);
                }
                remaining -= size;
            }
        }

        let mut gateway_rtt = vec![0 as Micros; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let base = if site[i] == site[j] {
                    rng.gen_range(params.intra_site.0..=params.intra_site.1)
                } else {
                    let b = params.continent_base[continent[i]][continent[j]];
                    b + site_offsets[site[i]] + site_offsets[site[j]]
                };
                let mut scale = 1.0 + rng.gen_range(-params.jitter..=params.jitter);
                if site[i] != site[j] {
                    let roll: f64 = rng.gen();
                    if roll < params.shortcut_prob {
                        scale *= rng.gen_range(params.shortcut_scale.0..=params.shortcut_scale.1);
                    } else if roll < params.shortcut_prob + params.detour_prob {
                        scale *= rng.gen_range(params.detour_scale.0..=params.detour_scale.1);
                    }
                }
                let rtt = ((base as f64) * scale).round().max(1.0) as Micros;
                gateway_rtt[i * n + j] = rtt;
                gateway_rtt[j * n + i] = rtt;
            }
        }
        let access = (0..n)
            .map(|_| rng.gen_range(params.access.0..=params.access.1))
            .collect();
        MatrixNetwork {
            n,
            gateway_rtt,
            access,
            #[cfg(test)]
            continent,
        }
    }

    /// The continent index assigned to host `h` (0 for matrices built with
    /// [`MatrixNetwork::from_matrix`]).
    #[cfg(test)]
    pub(crate) fn continent(&self, h: HostId) -> usize {
        self.continent[h.0]
    }
}

impl Network for MatrixNetwork {
    fn host_count(&self) -> usize {
        self.n
    }

    fn rtt(&self, a: HostId, b: HostId) -> Micros {
        if a == b {
            return 0;
        }
        self.gateway_rtt[a.0 * self.n + b.0] + self.access[a.0] + self.access[b.0]
    }

    fn gateway_rtt(&self, a: HostId, b: HostId) -> Micros {
        if a == b {
            return 0;
        }
        self.gateway_rtt[a.0 * self.n + b.0]
    }

    fn one_way(&self, a: HostId, b: HostId) -> Micros {
        self.rtt(a, b) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_params_give_227_hosts() {
        assert_eq!(PlanetLabParams::default().host_count(), 227);
    }

    #[test]
    fn synthetic_matrix_is_symmetric_with_zero_diagonal() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        assert_eq!(net.host_count(), 16);
        for a in 0..16 {
            assert_eq!(net.rtt(HostId(a), HostId(a)), 0);
            for b in 0..16 {
                assert_eq!(net.rtt(HostId(a), HostId(b)), net.rtt(HostId(b), HostId(a)));
            }
        }
    }

    #[test]
    fn inter_continent_rtt_dominates_intra() {
        // With shortcut/detour noise individual pairs can cross over, but
        // the *typical* (median) inter-continent RTT must still dominate.
        let mut rng = StdRng::seed_from_u64(12);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for a in 0..net.host_count() {
            for b in (a + 1)..net.host_count() {
                let rtt = net.gateway_rtt(HostId(a), HostId(b));
                if net.continent(HostId(a)) == net.continent(HostId(b)) {
                    intra.push(rtt);
                } else {
                    inter.push(rtt);
                }
            }
        }
        intra.sort_unstable();
        inter.sort_unstable();
        assert!(
            inter[inter.len() / 2] > 2 * intra[intra.len() / 2],
            "median inter must far exceed median intra"
        );
    }

    #[test]
    fn end_host_rtt_exceeds_gateway_rtt() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        for a in 0..4 {
            for b in 4..8 {
                let (a, b) = (HostId(a), HostId(b));
                assert!(net.rtt(a, b) > net.gateway_rtt(a, b));
                assert_eq!(net.one_way(a, b), net.rtt(a, b) / 2);
            }
        }
    }

    #[test]
    fn from_matrix_validates() {
        let rtt = vec![vec![0, 10], vec![10, 0]];
        let net = MatrixNetwork::from_matrix(rtt, vec![1, 2]);
        assert_eq!(net.gateway_rtt(HostId(0), HostId(1)), 10);
        assert_eq!(net.rtt(HostId(0), HostId(1)), 13);
        assert_eq!(net.path_links(HostId(0), HostId(1)), None);
        assert_eq!(net.link_count(), 0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_matrix_rejects_asymmetry() {
        MatrixNetwork::from_matrix(vec![vec![0, 10], vec![11, 0]], vec![1, 2]);
    }
}
