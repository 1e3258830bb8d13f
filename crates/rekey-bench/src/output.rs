//! TSV output helpers for the figure binaries.

use crate::harness::{arg_usize, latency_figure, LatencyConfig, SchemeSeries, Topology};

/// The x axis of an inverse CDF plot: `ranks` evenly spaced fractions of
/// users/links.
pub fn fraction_axis(samples: usize) -> Vec<f64> {
    if samples <= 1 {
        return vec![1.0];
    }
    (0..samples)
        .map(|i| i as f64 / (samples - 1) as f64)
        .collect()
}

/// Rank-wise mean across runs: every run contributes a sorted sample
/// vector; the result is the per-rank mean (the paper's methodology for
/// Fig. 6: "we ranked the users in increasing order of their stresses. For
/// each rank … we computed the average user stress of the users with this
/// particular rank across all runs").
///
/// # Panics
///
/// Panics if runs have different lengths or no runs are given.
pub fn ranked_mean(runs: &[Vec<f64>]) -> Vec<f64> {
    assert!(!runs.is_empty(), "need at least one run");
    let n = runs[0].len();
    let mut means = vec![0.0; n];
    for run in runs {
        assert_eq!(run.len(), n, "all runs must rank the same population size");
        let mut sorted = run.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN-free"));
        for (m, v) in means.iter_mut().zip(sorted) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= runs.len() as f64;
    }
    means
}

/// Rank-wise quantile across runs (the paper's Fig. 6 draws the
/// 95-percentile as vertical bars at each rank): each run is sorted, then
/// for every rank the `q`-quantile over runs is taken.
///
/// # Panics
///
/// Panics if runs have different lengths, no runs are given, or `q` is
/// outside `[0, 1]`.
pub fn ranked_quantile(runs: &[Vec<f64>], q: f64) -> Vec<f64> {
    assert!(!runs.is_empty(), "need at least one run");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let n = runs[0].len();
    let sorted_runs: Vec<Vec<f64>> = runs
        .iter()
        .map(|run| {
            assert_eq!(run.len(), n, "all runs must rank the same population size");
            let mut s = run.clone();
            s.sort_by(|a, b| a.partial_cmp(b).expect("NaN-free"));
            s
        })
        .collect();
    (0..n)
        .map(|rank| {
            let mut column: Vec<f64> = sorted_runs.iter().map(|r| r[rank]).collect();
            column.sort_by(|a, b| a.partial_cmp(b).expect("NaN-free"));
            let idx = ((q * (column.len() - 1) as f64).round()) as usize;
            column[idx]
        })
        .collect()
}

/// Prints a TSV table: a header, then one row per rank with the fraction
/// axis and one column per series.
///
/// # Panics
///
/// Panics if series lengths differ.
pub fn print_series_table(title: &str, columns: &[(&str, &[f64])]) {
    println!("# {title}");
    print!("fraction");
    for (name, _) in columns {
        print!("\t{name}");
    }
    println!();
    let n = columns.first().map_or(0, |(_, s)| s.len());
    for (_, s) in columns {
        assert_eq!(s.len(), n, "series length mismatch");
    }
    let axis = fraction_axis(n);
    for (i, frac) in axis.iter().enumerate() {
        print!("{frac:.4}");
        for (_, s) in columns {
            print!("\t{:.4}", s[i]);
        }
        println!();
    }
    println!();
}

/// The whole of a latency-figure binary (Figs. 6–11, which differ only in
/// these arguments): runs figure `fig` on `topology` with `users` joins
/// over the rekey or the data path, honouring `--runs N` (default
/// `default_runs`) and `--users N`, and prints the three inverse-CDF TSV
/// tables (user stress, application-layer delay in ms, RDP) to stdout and
/// a summary to stderr.
pub fn latency_figure_main(
    fig: u32,
    topology: Topology,
    users: usize,
    data_path: bool,
    default_runs: usize,
) {
    let mut cfg = LatencyConfig::paper(topology, users, data_path);
    cfg.runs = arg_usize("--runs", default_runs);
    cfg.users = arg_usize("--users", cfg.users);
    eprintln!(
        "fig{fig}: {} users, {} runs on {:?} ({} path)…",
        cfg.users,
        cfg.runs,
        cfg.topology,
        if cfg.data_path { "data" } else { "rekey" }
    );
    let figure = latency_figure(&cfg);
    let table = |title: &str, series: &SchemeSeries| {
        print_series_table(
            &format!("fig{fig}{title}"),
            &[
                ("nice", &series.nice),
                ("nice_p95", &series.nice_p95),
                ("tmesh", &series.tmesh),
                ("tmesh_p95", &series.tmesh_p95),
            ],
        );
    };
    table("a: inverse CDF of user stress", &figure.stress);
    table(
        "b: inverse CDF of application-layer delay (ms)",
        &figure.delay_ms,
    );
    table("c: inverse CDF of RDP", &figure.rdp);
    let below = |series: &[f64], bound: f64| {
        100.0 * series.iter().filter(|&&v| v < bound).count() as f64 / series.len() as f64
    };
    eprintln!(
        "fig{fig}: T-mesh RDP<2 for {:.0}% of users, RDP<3 for {:.0}%; NICE RDP<2 for {:.0}%, RDP<3 for {:.0}%",
        below(&figure.rdp.tmesh, 2.0),
        below(&figure.rdp.tmesh, 3.0),
        below(&figure.rdp.nice, 2.0),
        below(&figure.rdp.nice, 3.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_mean_sorts_each_run() {
        let runs = vec![vec![3.0, 1.0, 2.0], vec![10.0, 30.0, 20.0]];
        assert_eq!(ranked_mean(&runs), vec![5.5, 11.0, 16.5]);
    }

    #[test]
    fn fraction_axis_spans_unit_interval() {
        let axis = fraction_axis(5);
        assert_eq!(axis[0], 0.0);
        assert_eq!(axis[4], 1.0);
        assert_eq!(fraction_axis(1), vec![1.0]);
    }

    #[test]
    fn ranked_quantile_extracts_per_rank_extremes() {
        let runs = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 20.0]];
        assert_eq!(ranked_quantile(&runs, 1.0), vec![3.0, 30.0]);
        assert_eq!(ranked_quantile(&runs, 0.0), vec![1.0, 10.0]);
        assert_eq!(ranked_quantile(&runs, 0.5), vec![2.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "same population")]
    fn ranked_mean_rejects_mismatched_runs() {
        ranked_mean(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
