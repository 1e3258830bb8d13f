//! The benchmark's own input generator: everything a seed chooses
//! (leavers, host placement, joiner IDs) comes from this SplitMix64
//! stream, so the program sees only generated inputs and the same seed
//! gives the same inputs.

pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// One value from each of `k` equal strata of `0..n`, ascending
    /// (`k ≤ n`): a sample spread evenly over the range, so a cost that
    /// depends on the position drawn varies little from seed to seed.
    pub fn stratified(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} strata below {n}");
        (0..k)
            .map(|s| {
                let (lo, hi) = (s * n / k, (s + 1) * n / k);
                lo + self.below(hi - lo)
            })
            .collect()
    }

    /// `k` distinct values of `0..n`, in draw order (`k ≤ n`).
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct values below {n}");
        let mut seen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Gen::new(7), Gen::new(7));
        assert_eq!(a.distinct(50, 60), b.distinct(50, 60));
        let mut v: Vec<u32> = (0..100).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted);
        assert_ne!(Gen::new(8).next_u64(), Gen::new(7).next_u64());
        let strata = a.stratified(8, 83);
        assert!(strata.windows(2).all(|w| w[0] < w[1]), "{strata:?}");
        assert!(
            strata
                .iter()
                .enumerate()
                .all(|(s, &v)| (s * 83 / 8..(s + 1) * 83 / 8).contains(&v)),
            "{strata:?}"
        );
    }
}
