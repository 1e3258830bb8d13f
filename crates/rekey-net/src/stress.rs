//! Per-link load accounting (link stress, encryptions per link).
//!
//! The paper defines the *stress of a physical link* as "the number of
//! identical copies of the message carried by a physical link during
//! multicast" (§2.3), and Fig. 13(c) plots the number of encryptions going
//! through each network link.

use crate::graph::LinkId;

/// An accumulator of per-link loads (message copies, encryptions, bytes…).
#[derive(Debug, Clone)]
pub struct LinkLoad {
    per_link: Vec<u64>,
}

impl LinkLoad {
    /// Creates a zeroed accumulator for `link_count` links.
    pub fn new(link_count: usize) -> LinkLoad {
        LinkLoad {
            per_link: vec![0; link_count],
        }
    }

    /// Adds `amount` to one link.
    ///
    /// # Panics
    ///
    /// Panics if the link is out of range.
    pub fn add(&mut self, link: LinkId, amount: u64) {
        self.per_link[link.0] += amount;
    }

    /// Adds `amount` to every link of a path.
    pub fn add_path(&mut self, path: &[LinkId], amount: u64) {
        for &link in path {
            self.add(link, amount);
        }
    }

    /// The load on one link.
    #[cfg(test)]
    pub(crate) fn load(&self, link: LinkId) -> u64 {
        self.per_link[link.0]
    }

    /// Maximum load over all links (0 for empty accumulators).
    pub fn max(&self) -> u64 {
        self.per_link.iter().copied().max().unwrap_or(0)
    }

    /// Total load over all links.
    pub fn total(&self) -> u64 {
        self.per_link.iter().sum()
    }

    /// All per-link loads, sorted ascending — the form needed to plot the
    /// paper's inverse cumulative distributions.
    pub fn sorted_loads(&self) -> Vec<u64> {
        let mut v = self.per_link.clone();
        v.sort_unstable();
        v
    }

    /// Iterates over `(link, load)` pairs with nonzero load.
    #[cfg(test)]
    pub(crate) fn iter_nonzero(&self) -> impl Iterator<Item = (LinkId, u64)> + '_ {
        self.per_link
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(|(i, &v)| (LinkId(i), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_reports() {
        let mut load = LinkLoad::new(4);
        load.add(LinkId(1), 3);
        load.add_path(&[LinkId(1), LinkId(2)], 2);
        assert_eq!(load.load(LinkId(0)), 0);
        assert_eq!(load.load(LinkId(1)), 5);
        assert_eq!(load.load(LinkId(2)), 2);
        assert_eq!(load.max(), 5);
        assert_eq!(load.total(), 7);
        assert_eq!(load.sorted_loads(), vec![0, 0, 2, 5]);
        assert_eq!(load.iter_nonzero().count(), 2);
    }

    #[test]
    fn empty_accumulator() {
        let load = LinkLoad::new(0);
        assert_eq!(load.max(), 0);
        assert_eq!(load.total(), 0);
        assert!(load.sorted_loads().is_empty());
    }
}
