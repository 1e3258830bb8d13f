//! Medians, quartiles and a percentile helper that refuses a percentile
//! the sample cannot support.

/// Summary of a set of timing samples: what every timing is printed as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// # Panics
///
/// Panics on an empty sample: every caller times at least one repetition.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let v = sorted(samples);
    Summary {
        n: v.len(),
        min: v[0],
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        max: v[v.len() - 1],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub beyond: usize,
}

/// Whether `samples` values support the `q`-quantile: at least
/// [`MIN_BEYOND`] of them must lie beyond it.
pub fn supports(samples: usize, q: f64) -> Result<(), TooFewSamples> {
    // 1 - 0.9 is a hair under 0.1 in binary; do not lose a sample to it.
    let beyond = (samples as f64 * (1.0 - q) + 1e-9).floor() as usize;
    if beyond >= MIN_BEYOND {
        Ok(())
    } else {
        Err(TooFewSamples { samples, beyond })
    }
}

/// The `q`-quantile of `samples`, refused when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    supports(samples.len(), q)?;
    Ok(quantile_sorted(&sorted(samples), q))
}

/// `q` where `samples` values support it, else the highest of `0.95, 0.9,
/// 0.75, 0.5` below `q` that they do (the median for tiny samples). Only
/// thumbnail sizes ever step down; full sizes support p99.
pub fn supported_quantile(samples: usize, q: f64) -> f64 {
    [q, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|&step| step <= q && supports(samples, step).is_ok())
        .unwrap_or(0.5)
}

/// The [`supported_quantile`] of raw samples.
pub fn percentile_or_nearest(samples: &[f64], q: f64) -> f64 {
    percentile(samples, supported_quantile(samples.len(), q)).unwrap_or_else(|_| median(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_ramp() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.n, s.min, s.median, s.q1, s.q3, s.max),
            (5, 1.0, 3.0, 2.0, 4.0, 5.0)
        );
    }

    #[test]
    fn percentile_refuses_unsupported_tail() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&few, 0.99),
            Err(TooFewSamples {
                samples: 999,
                beyond: 9
            })
        );
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&enough, 0.99).is_ok());
        assert!(percentile(&few, 0.95).is_ok());
        assert!(percentile(&[1.0; 19], 0.5).is_err());
        assert!(percentile(&[1.0; 20], 0.5).is_ok());
    }

    #[test]
    fn supported_quantile_steps_down() {
        assert_eq!(supported_quantile(5000, 0.99), 0.99);
        assert_eq!(supported_quantile(500, 0.99), 0.95);
        assert_eq!(supported_quantile(100, 0.99), 0.9);
        assert_eq!(supported_quantile(40, 0.99), 0.75);
        assert_eq!(supported_quantile(8, 0.99), 0.5);
        assert_eq!(supported_quantile(500, 0.5), 0.5);
        let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_or_nearest(&ramp, 0.99), 90.0);
    }
}
