//! The layered NICE hierarchy: joins, leaves and cluster maintenance.

use rekey_net::{HostId, Network};

use crate::cluster::Cluster;

/// NICE protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NiceParams {
    /// The cluster-size parameter `k`: sizes are kept in `[k, 3k−1]`. The
    /// paper simulates NICE with "three to eight users" per cluster, i.e.
    /// `k = 3`.
    pub k: usize,
}

impl Default for NiceParams {
    fn default() -> NiceParams {
        NiceParams { k: 3 }
    }
}

impl NiceParams {
    /// Maximum cluster size `3k − 1`.
    pub(crate) fn max_size(&self) -> usize {
        3 * self.k - 1
    }
}

/// The NICE layered-cluster hierarchy.
///
/// Layer 0 contains every group member partitioned into clusters; the
/// leaders of layer-`i` clusters are the members of layer `i+1`, up to a
/// single top cluster whose leader is the **root**. Joins are sequential
/// (as in the paper's NICE simulations: "a user will not join or leave the
/// group until the previous join or leave terminates").
#[derive(Debug, Clone, Default)]
pub struct NiceHierarchy {
    params: NiceParams,
    layers: Vec<Vec<Cluster>>,
}

impl NiceHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(params: NiceParams) -> NiceHierarchy {
        NiceHierarchy {
            params,
            layers: Vec::new(),
        }
    }

    /// The clusters of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub(crate) fn layer(&self, layer: usize) -> &[Cluster] {
        &self.layers[layer]
    }

    /// All group members (layer 0).
    pub(crate) fn members(&self) -> Vec<HostId> {
        self.layers.first().map_or_else(Vec::new, |layer| {
            layer
                .iter()
                .flat_map(|c| c.members.iter().copied())
                .collect()
        })
    }

    /// Number of group members.
    pub fn member_count(&self) -> usize {
        self.layers
            .first()
            .map_or(0, |layer| layer.iter().map(Cluster::len).sum())
    }

    /// The root: leader of the (single) top cluster.
    pub(crate) fn root(&self) -> Option<HostId> {
        self.layers
            .last()
            .and_then(|layer| layer.first())
            .map(|c| c.leader)
    }

    /// All clusters `host` belongs to, as `(layer, cluster_index)` pairs.
    pub(crate) fn clusters_of(&self, host: HostId) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            for (ci, cluster) in layer.iter().enumerate() {
                if cluster.contains(host) {
                    out.push((li, ci));
                }
            }
        }
        out
    }

    /// Joins `host`: descends from the root picking the closest leader at
    /// each layer (the NICE join procedure), inserts into the chosen
    /// layer-0 cluster, then runs maintenance.
    ///
    /// # Panics
    ///
    /// Panics if `host` is already a member.
    pub fn join(&mut self, host: HostId, net: &impl Network) {
        assert!(
            !self.members().contains(&host),
            "{host} is already a member"
        );
        if self.layers.is_empty() {
            self.layers.push(vec![Cluster::singleton(host)]);
            return;
        }
        let mut layer = self.layers.len() - 1;
        let mut ci = 0;
        while layer > 0 {
            let closest = *self.layers[layer][ci]
                .members
                .iter()
                .min_by_key(|&&m| (net.rtt(host, m), m.0))
                .expect("clusters are non-empty");
            ci = self.layers[layer - 1]
                .iter()
                .position(|c| c.leader == closest)
                .expect("every upper-layer member leads a cluster below");
            layer -= 1;
        }
        self.layers[0][ci].members.push(host);
        self.maintain(net);
    }

    /// Removes `host` from the group and repairs the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a member.
    pub fn leave(&mut self, host: HostId, net: &impl Network) {
        let layer0 = self.layers.first_mut().expect("leave from empty hierarchy");
        let ci = layer0
            .iter()
            .position(|c| c.contains(host))
            .unwrap_or_else(|| panic!("{host} is not a member"));
        layer0[ci].members.retain(|&m| m != host);
        self.maintain(net);
    }

    /// Cluster maintenance: bottom-up, per layer — drop empty clusters,
    /// merge undersized ones into the cluster with the closest leader,
    /// split oversized ones, re-elect centers as leaders, and reconcile the
    /// next layer's membership with the current layer's leader set.
    pub(crate) fn maintain(&mut self, net: &impl Network) {
        if self.member_count() == 0 {
            self.layers.clear();
            return;
        }
        let mut layer = 0;
        loop {
            // Drop empties.
            self.layers[layer].retain(|c| !c.is_empty());

            // Merge undersized clusters (only meaningful with >1 cluster).
            loop {
                let layer_ref = &self.layers[layer];
                if layer_ref.len() <= 1 {
                    break;
                }
                let Some(small) = layer_ref.iter().position(|c| c.len() < self.params.k) else {
                    break;
                };
                let small_leader = layer_ref[small].leader;
                let target = layer_ref
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != small)
                    .min_by_key(|&(_, c)| (net.rtt(small_leader, c.leader), c.leader.0))
                    .map(|(i, _)| i)
                    .expect("at least two clusters");
                let absorbed = self.layers[layer].remove(small);
                let target = if target > small { target - 1 } else { target };
                self.layers[layer][target].members.extend(absorbed.members);
            }

            // Split oversized clusters.
            let mut i = 0;
            while i < self.layers[layer].len() {
                if self.layers[layer][i].len() > self.params.max_size() {
                    let (a, b) = self.layers[layer][i].split(net);
                    self.layers[layer][i] = a;
                    self.layers[layer].push(b);
                } else {
                    i += 1;
                }
            }

            // Re-elect leaders.
            for c in &mut self.layers[layer] {
                c.refresh_leader(net);
            }

            // Top reached?
            if self.layers[layer].len() == 1 {
                self.layers.truncate(layer + 1);
                return;
            }

            // Reconcile the layer above with the current leader set.
            let leaders: Vec<HostId> = self.layers[layer].iter().map(|c| c.leader).collect();
            if self.layers.len() == layer + 1 {
                self.layers.push(vec![Cluster {
                    members: leaders.clone(),
                    leader: leaders[0],
                }]);
            } else {
                let upper = &mut self.layers[layer + 1];
                for c in upper.iter_mut() {
                    c.members.retain(|m| leaders.contains(m));
                }
                upper.retain(|c| !c.is_empty());
                let present: Vec<HostId> = upper
                    .iter()
                    .flat_map(|c| c.members.iter().copied())
                    .collect();
                for &l in &leaders {
                    if !present.contains(&l) {
                        if upper.is_empty() {
                            upper.push(Cluster::singleton(l));
                        } else {
                            let best = upper
                                .iter()
                                .enumerate()
                                .min_by_key(|&(_, c)| (net.rtt(l, c.leader), c.leader.0))
                                .map(|(i, _)| i)
                                .expect("non-empty upper layer");
                            upper[best].members.push(l);
                        }
                    }
                }
            }
            layer += 1;
        }
    }

    /// Checks the NICE structural invariants; used by tests.
    ///
    /// * each member appears in exactly one cluster per layer it belongs to;
    /// * layer `i+1` members are exactly the layer-`i` leaders;
    /// * cluster sizes are in `[k, 3k−1]` whenever the layer has more than
    ///   one cluster (a lone cluster may be smaller);
    /// * the top layer has a single cluster.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Ok(());
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for c in layer {
                if c.is_empty() {
                    return Err(format!("empty cluster at layer {li}"));
                }
                if !c.contains(c.leader) {
                    return Err(format!("leader not a member at layer {li}"));
                }
                for &m in &c.members {
                    if !seen.insert(m) {
                        return Err(format!("{m} appears twice at layer {li}"));
                    }
                }
                if layer.len() > 1 && (c.len() < self.params.k || c.len() > self.params.max_size())
                {
                    return Err(format!(
                        "cluster size {} out of bounds at layer {li}",
                        c.len()
                    ));
                }
            }
            if li + 1 < self.layers.len() {
                let leaders: std::collections::HashSet<HostId> =
                    layer.iter().map(|c| c.leader).collect();
                let upper: std::collections::HashSet<HostId> = self.layers[li + 1]
                    .iter()
                    .flat_map(|c| c.members.iter().copied())
                    .collect();
                if leaders != upper {
                    return Err(format!(
                        "layer {} members are not layer-{li} leaders",
                        li + 1
                    ));
                }
            }
        }
        if self.layers.last().expect("non-empty").len() != 1 {
            return Err("top layer must hold a single cluster".into());
        }
        Ok(())
    }
}
