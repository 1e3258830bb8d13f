//! Per-user latency/stress metrics and distribution helpers (§4.1).
//!
//! The paper evaluates every multicast scheme with three per-user metrics:
//!
//! * **user stress** — messages forwarded by the user in a session;
//! * **application-layer delay** — sender-to-user latency over the overlay;
//! * **relative delay penalty (RDP)** — application-layer delay divided by
//!   the one-way unicast delay from the sender to the user.
//!
//! and plots their *inverse cumulative distributions*: a point `(x, y)`
//! means "fraction `x` of users have metric ≤ `y`".

use rekey_net::{Micros, Network};

use crate::session::{MulticastOutcome, Source, TmeshGroup};

/// Per-user metrics of one multicast session.
#[derive(Debug, Clone, Default)]
pub struct PathMetrics {
    /// Messages forwarded per user.
    pub stress: Vec<u32>,
    /// Application-layer delay per user (µs); `None` if never reached.
    pub delay: Vec<Option<Micros>>,
    /// Relative delay penalty per user; `None` if never reached. The sender
    /// itself (data sessions) gets stress but no delay/RDP sample.
    pub rdp: Vec<Option<f64>>,
}

impl PathMetrics {
    /// Extracts metrics from a T-mesh session outcome.
    pub fn from_outcome(
        group: &TmeshGroup,
        net: &impl Network,
        outcome: &MulticastOutcome,
    ) -> PathMetrics {
        let sender_host = group.host_of(outcome.source());
        let n = outcome.member_count();
        let mut metrics = PathMetrics {
            stress: Vec::with_capacity(n),
            delay: Vec::with_capacity(n),
            rdp: Vec::with_capacity(n),
        };
        for i in 0..n {
            metrics.stress.push(outcome.user_stress(i));
            if matches!(outcome.source(), Source::User(s) if s == i) {
                metrics.delay.push(None);
                metrics.rdp.push(None);
                continue;
            }
            let delay = outcome.first_delivery(i).map(|d| d.arrival);
            metrics.delay.push(delay);
            metrics.rdp.push(delay.map(|d| {
                let unicast = net.one_way(sender_host, group.members()[i].host).max(1);
                d as f64 / unicast as f64
            }));
        }
        metrics
    }

    /// Fraction of reached users with RDP strictly below `bound` (the paper
    /// reports e.g. "78% of users have an RDP less than 2").
    pub fn fraction_rdp_below(&self, bound: f64) -> f64 {
        let samples: Vec<f64> = self.rdp.iter().flatten().copied().collect();
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().filter(|&&r| r < bound).count() as f64 / samples.len() as f64
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending-`sorted` samples, by the
/// nearest-rank method.
///
/// # Panics
///
/// Panics if `samples` is empty or `q` is outside `[0, 1]`.
pub fn quantile<T: Copy>(sorted_samples: &[T], q: f64) -> T {
    assert!(!sorted_samples.is_empty(), "quantile of empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let rank = ((q * sorted_samples.len() as f64).ceil() as usize).max(1) - 1;
    sorted_samples[rank.min(sorted_samples.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorts samples ascending — the x-axis-ready form of an inverse CDF plot.
    fn sorted<T: PartialOrd + Copy>(samples: &[T]) -> Vec<T> {
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN-free samples"));
        v
    }

    /// The paper's percentile helper: `percentile(samples, 80)` is the
    /// 80-percentile used in ID assignment step 3 (§3.1.3).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `p` exceeds 100.
    fn percentile(samples: &[Micros], p: u8) -> Micros {
        assert!(p <= 100, "percentile must be ≤ 100");
        let s = sorted(samples);
        quantile(&s, f64::from(p) / 100.0)
    }

    /// Inverse-CDF points `(fraction, value)` at `points` evenly spaced
    /// fractions, for TSV output matching the paper's figures.
    fn inverse_cdf<T: PartialOrd + Copy>(samples: &[T], points: usize) -> Vec<(f64, T)> {
        assert!(points >= 2, "need at least two points");
        let s = sorted(samples);
        if s.is_empty() {
            return Vec::new();
        }
        (0..points)
            .map(|i| {
                let frac = i as f64 / (points - 1) as f64;
                let rank = ((frac * (s.len() - 1) as f64).round()) as usize;
                (frac, s[rank])
            })
            .collect()
    }

    #[test]
    fn quantiles_nearest_rank() {
        let s = sorted(&[5u64, 1, 3, 2, 4]);
        assert_eq!(s, vec![1, 2, 3, 4, 5]);
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(quantile(&s, 0.5), 3);
        assert_eq!(quantile(&s, 0.8), 4);
        assert_eq!(quantile(&s, 1.0), 5);
    }

    #[test]
    fn percentile_matches_paper_usage() {
        // 10 samples; 80-percentile is the 8th smallest.
        let samples: Vec<Micros> = (1..=10).rev().collect();
        assert_eq!(percentile(&samples, 80), 8);
        assert_eq!(percentile(&samples, 100), 10);
        assert_eq!(percentile(&samples, 1), 1);
    }

    #[test]
    fn inverse_cdf_spans_range() {
        let points = inverse_cdf(&[10u32, 20, 30, 40], 5);
        assert_eq!(points.first().unwrap().1, 10);
        assert_eq!(points.last().unwrap().1, 40);
        assert_eq!(points.len(), 5);
        assert!((points[2].0 - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        quantile::<u64>(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 50);
    }

    #[test]
    #[should_panic(expected = "percentile must be ≤ 100")]
    fn percentile_rejects_over_100() {
        percentile(&[1, 2, 3], 101);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(percentile(&[42], p), 42);
        }
    }

    #[test]
    fn percentile_extremes_hit_min_and_max() {
        // Unsorted input; F = 100 must return the maximum, 0 the minimum.
        let samples: Vec<Micros> = vec![7, 3, 11, 5, 2];
        assert_eq!(percentile(&samples, 100), 11);
        assert_eq!(percentile(&samples, 0), 2);
    }

    #[test]
    fn percentile_is_duplicate_stable() {
        let samples: Vec<Micros> = vec![4, 4, 4, 4];
        for p in [0, 25, 50, 75, 100] {
            assert_eq!(percentile(&samples, p), 4);
        }
    }

    #[test]
    fn fraction_rdp_below_counts_reached_users_only() {
        let m = PathMetrics {
            stress: vec![0; 4],
            delay: vec![Some(1), Some(2), None, Some(3)],
            rdp: vec![Some(1.5), Some(2.5), None, Some(1.9)],
        };
        assert!((m.fraction_rdp_below(2.0) - 2.0 / 3.0).abs() < 1e-9);
    }
}
