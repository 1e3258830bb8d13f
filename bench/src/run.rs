//! Runs one workload: the repetitions `--seconds` allows, the figure
//! reported for each metric, the determinism and correctness tallies, and
//! — in a traced run — the per-layer table (native spans and counters,
//! plus what the workload's probes measured on its end state).

use std::fmt::Write as _;

use crate::catalog::{self, Metrics, PER_LAYER, SIM, SYNC, TREE, UDP};
use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use crate::workloads::{keytree_bulk, sim_mega, sync_churn, udp_loopback, Rep, RepOpts};

pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 64–256 members instead of the full sizes: what `cargo test` runs.
    pub thumbnail: bool,
}

pub struct RunResult {
    pub workload: &'static str,
    pub trace: bool,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Median, quartiles and sample count behind each timing.
    pub timings: Vec<(&'static str, Summary)>,
    /// Median seconds of the set-up, drive, finish and verify phases.
    pub phases_s: [f64; 4],
    pub tracer: Tracer,
}

/// How many repetitions a run makes: what fits into `--seconds` at the
/// repetition time measured on the builder's machine (2 cores, Xeon
/// 2.1 GHz), at least 5 (3 for `sim_mega`). Fixed by the arguments and not
/// by how fast the host happens to be, so a cheapest-of-N figure is always
/// taken over the same N.
fn repetitions(workload: &str, thumbnail: bool, seconds: f64) -> usize {
    let (nominal_rep_s, at_least) = match workload {
        SIM => (3.0, 3),
        UDP => (5.4, 5),
        SYNC => (2.3, 5),
        _ => (1.5, 5),
    };
    if thumbnail {
        return at_least;
    }
    ((seconds / nominal_rep_s).round() as usize).clamp(at_least, 64)
}

/// `true` where the same seed must give the same counts and end state.
fn deterministic(workload: &str) -> bool {
    workload != UDP
}

fn one_rep(workload: &str, thumbnail: bool, opts: RepOpts<'_>) -> Rep {
    match workload {
        SIM => sim_mega::rep(sim_mega::Size::of(thumbnail), opts),
        UDP => udp_loopback::rep(udp_loopback::Size::of(thumbnail), opts),
        SYNC => sync_churn::rep(sync_churn::Size::of(thumbnail), opts),
        TREE => keytree_bulk::rep(keytree_bulk::Size::of(thumbnail), opts),
        other => panic!("unknown workload {other}"),
    }
}

pub fn run_workload(args: &RunArgs) -> RunResult {
    let RunArgs {
        workload,
        seed,
        seconds,
        trace,
        thumbnail,
    } = *args;
    let mut tracer = Tracer::new(false);
    let mut layer = Metrics::default();
    if trace && workload == SIM {
        tracer.set_enabled(true, 0);
        sim_mega::probe_tables(sim_mega::Size::of(thumbnail), &mut tracer, &mut layer);
    }

    let n = repetitions(workload, thumbnail, seconds);
    let mut reps: Vec<Rep> = Vec::with_capacity(n);
    for i in 0..n {
        // A traced run keeps its even repetitions untraced: they are the
        // baseline the tracing overhead is measured against.
        tracer.set_enabled(trace && i % 2 == 1, i as u32);
        reps.push(one_rep(
            workload,
            thumbnail,
            RepOpts {
                seed,
                tracer: &mut tracer,
                probes: (trace && i + 1 == n).then_some(&mut layer),
            },
        ));
    }

    // ------------------------------------------------ correctness tallies
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    // The same seed must reproduce the end state (and, where no wall clock
    // or kernel is involved, every exact count).
    for rep in &reps[1..] {
        attempted += 1;
        let same = rep.fingerprint == reps[0].fingerprint
            && (!deterministic(workload)
                || (rep.counts == reps[0].counts
                    && rep.rekey_encryptions == reps[0].rekey_encryptions
                    && rep.recv_encryptions_per_member == reps[0].recv_encryptions_per_member));
        if !same {
            failed += 1;
            failures.push("a repetition of the same seed gave a different result".into());
        }
    }

    let mut timings = Vec::new();
    let mut timing = |name: &'static str, samples: &[f64]| {
        let s = summarize(samples);
        timings.push((name, s));
        s
    };
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let pooled = |f: &dyn Fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };

    let metrics: Vec<(&'static str, f64)> = if !trace {
        let intervals = reps[0].costs.len() as f64;
        // A cost — how long a fixed amount of work took — is the cheapest
        // of the run's repetitions: whatever else the host does only ever
        // adds to it. The median and quartiles are printed beside it.
        let setup = timing("setup_s", &per_rep(&|r| r.setup_s));
        let cpu = timing(
            "cpu_ms_per_interval",
            &per_rep(&|r| r.costs.iter().map(|c| c.cpu_ms).sum::<f64>() / intervals),
        );
        vec![
            ("setup_s", setup.min),
            ("cpu_ms_per_interval", cpu.min),
            // A latency percentile is the median repetition's: a tail is
            // what it is there to show.
            (
                "apply_delay_p99_ms",
                timing("apply_delay_p99_ms", &per_rep(&|r| r.apply_p99_ms)).median,
            ),
            // One process per workload: its high-water mark when the last
            // repetition has finished.
            ("peak_rss_mb", reps[n - 1].peak_rss_mib),
            // Exact where the workload is deterministic (checked equal
            // above), else the median repetition's.
            (
                "rekey_encryptions_per_interval",
                median(&per_rep(&|r| r.rekey_encryptions as f64)) / intervals,
            ),
            (
                "recv_encryptions_per_member",
                median(&per_rep(&|r| r.recv_encryptions_per_member)),
            ),
        ]
    } else {
        for (i, &(name, _)) in reps[0].counts.iter().enumerate() {
            layer.set(name, median(&per_rep(&|r| r.counts[i].1)));
        }
        for (i, &(name, _)) in reps[0].timed.iter().enumerate() {
            layer.set(name, timing(name, &per_rep(&|r| r.timed[i].1)).median);
        }
        layer.set(
            "generator_late_ms",
            timing("generator_late_ms", &pooled(&|r| &r.generator_ms)).median,
        );
        layer.set("failed_share", failed as f64 / attempted as f64);
        tracing_cost(&reps, &tracer, &mut layer);
        PER_LAYER
            .iter()
            .map(|m| {
                // Measured where the workload exercises the layer; where
                // it is off the path it did no work and reads 0.
                let value = layer.get(m.name);
                assert_eq!(
                    value.is_some(),
                    m.on.contains(&workload),
                    "{workload} and {} disagree with the catalogue",
                    m.name
                );
                (m.name, value.unwrap_or(0.0))
            })
            .collect()
    };
    if let Err(e) = tracer.check_nesting() {
        attempted += 1;
        failed += 1;
        failures.push(format!("trace: {e}"));
    }

    RunResult {
        workload,
        trace,
        phases_s: [
            median(&per_rep(&|r| r.setup_s)),
            median(&per_rep(&|r| r.interval_wall_ms.iter().sum::<f64>() / 1e3)),
            median(&per_rep(&|r| r.finish_s)),
            median(&per_rep(&|r| r.verify_s)),
        ],
        reps: reps.len(),
        attempted,
        failed,
        failures,
        metrics: metrics
            .into_iter()
            .map(|(name, value)| {
                assert!(value.is_finite(), "{name} is not finite");
                (name, value, catalog::unit_of(name).expect("catalogued"))
            })
            .collect(),
        timings,
        tracer,
    }
}

/// `trace_overhead_pct` and `trace_self_sum_pct`: the traced repetitions'
/// drive phase against the untraced ones'.
fn tracing_cost(reps: &[Rep], tracer: &Tracer, m: &mut Metrics) {
    let drive_ms = |parity: usize| -> Vec<f64> {
        reps.iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, r)| r.interval_wall_ms.iter().sum())
            .collect()
    };
    let (untraced, traced) = (drive_ms(0), drive_ms(1));
    let base = median(&untraced);
    m.set("trace_overhead_pct", (median(&traced) / base - 1.0) * 100.0);
    let self_ns: u64 = tracer
        .self_time_table("drive")
        .iter()
        .map(|row| row.self_ns)
        .sum();
    let per_traced_rep_ms = self_ns as f64 / 1e6 / traced.len() as f64;
    m.set("trace_self_sum_pct", per_traced_rep_ms / base * 100.0);
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object (one line).
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The human-readable report: every metric by name with its unit, the
    /// quartiles behind each timing, and the self-time table of a traced
    /// run.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let kind = if self.trace {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        let _ = writeln!(
            out,
            "== {} — {kind}, {} repetitions, {} checks, {} failed",
            self.workload, self.reps, self.attempted, self.failed
        );
        if self.workload == "udp_loopback" {
            let _ = writeln!(
                out,
                "   (datagrams cross the host's loopback interface, not a real link)"
            );
        }
        let [setup, drive, finish, verify] = self.phases_s;
        let _ = writeln!(
            out,
            "   phases (median s): setup {setup:.3}  drive {drive:.3}  finish {finish:.3}  verify {verify:.3}"
        );
        for failure in &self.failures {
            let _ = writeln!(out, "   FAILED: {failure}");
        }
        for (name, value, unit) in &self.metrics {
            let layer = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .map_or("end-to-end", |m| m.layer);
            let _ = write!(out, "{name:<36} {value:>16.4} {unit:<7} {layer:<13}");
            if let Some((_, s)) = self.timings.iter().find(|(n, _)| n == name) {
                let _ = write!(
                    out,
                    " per repetition: median {:.4}  q1 {:.4}  q3 {:.4}  n {}",
                    s.median, s.q1, s.q3, s.n
                );
            }
            out.push('\n');
        }
        if self.trace {
            let _ = writeln!(
                out,
                "-- self time under `drive` (span time minus child spans)"
            );
            let rows = self.tracer.self_time_table("drive");
            let total: u64 = rows.iter().map(|r| r.self_ns).sum();
            for row in rows {
                let _ = writeln!(
                    out,
                    "{:<13} {:<32} {:>8} spans {:>12.3} ms {:>6.2} %",
                    row.layer,
                    row.name,
                    row.spans,
                    row.self_ns as f64 / 1e6,
                    row.self_ns as f64 * 100.0 / total.max(1) as f64
                );
            }
        }
        out
    }
}

/// The names a run of this kind must print, in order.
#[cfg(test)]
pub fn expected_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thumbnail(workload: &'static str, trace: bool) -> RunResult {
        run_workload(&RunArgs {
            workload,
            seed: 11,
            seconds: 0.1,
            trace,
            thumbnail: true,
        })
    }

    /// Every catalogued metric of the run's kind is printed exactly once,
    /// in order, with a finite value and its catalogued unit.
    fn assert_complete(result: &RunResult) {
        let names: Vec<&str> = result.metrics.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names, expected_names(result.trace), "{}", result.workload);
        for &(name, value, unit) in &result.metrics {
            assert!(value.is_finite(), "{name} = {value}");
            assert_eq!(Some(unit), catalog::unit_of(name));
            assert!(!unit.is_empty());
        }
        let json = result.result_json();
        assert!(!json.contains('\n'));
        for key in [
            "\"correct\": ",
            "\"attempted\": ",
            "\"failed\": ",
            "\"metrics\": {",
        ] {
            assert_eq!(json.matches(key).count(), 1, "{key} in {json}");
        }
        for name in names {
            assert_eq!(
                json.matches(&format!("\"{name}\": {{\"value\": ")).count(),
                1
            );
        }
        assert!(result.attempted >= 1);
        assert_eq!(result.reps, repetitions(result.workload, true, 0.1));
    }

    /// End-to-end metrics are never 0. A per-layer timing is measured on
    /// the workloads the catalogue lists for it and reads 0 on the others.
    fn assert_measured(result: &RunResult) {
        for &(name, value, unit) in &result.metrics {
            let Some(m) = PER_LAYER.iter().find(|m| m.name == name) else {
                assert!(value > 0.0, "{}: {name} = {value}", result.workload);
                continue;
            };
            if !m.on.contains(&result.workload) {
                assert_eq!(value, 0.0, "{}: {name} is off its path", result.workload);
            } else if !matches!(unit, "count" | "ratio" | "B" | "sim_ms" | "%") {
                assert!(value > 0.0, "{}: {name} = {value}", result.workload);
            }
        }
    }

    fn assert_spans_nest(result: &RunResult) {
        result.tracer.check_nesting().unwrap();
        let spans = result.tracer.spans();
        assert!(result.tracer.enabled() || !spans.is_empty() || !result.trace);
        assert!(result.tracer.self_times_ns().len() == spans.len());
        // One trace id per interval: no two `interval` spans of one
        // repetition share it, and check_nesting pinned their children.
        let mut ids = std::collections::HashSet::new();
        for span in spans.iter().filter(|s| s.name == "interval") {
            assert!(span.interval > 0);
            assert!(ids.insert((span.rep, span.interval)), "trace id reused");
        }
        if !result.trace {
            assert!(spans.is_empty(), "an end-to-end run records no spans");
        }
    }

    fn check(workload: &'static str) {
        for trace in [false, true] {
            let result = thumbnail(workload, trace);
            assert_complete(&result);
            assert_measured(&result);
            assert_spans_nest(&result);
            if deterministic(workload) {
                assert_eq!(result.failed, 0, "{:?}", result.failures);
                assert!(result.correct());
            } else {
                // Deadlines on a loaded test machine may be missed; they
                // are counted, never panicked on.
                assert!(result.failed <= result.attempted);
            }
            assert!(result.report().contains(workload));
        }
    }

    #[test]
    fn sim_mega_thumbnail() {
        check("sim_mega");
    }

    #[test]
    fn udp_loopback_thumbnail() {
        check("udp_loopback");
    }

    #[test]
    fn sync_churn_thumbnail() {
        check("sync_churn");
        // Its spans cover the whole interval: every layer call is a child.
        let result = thumbnail("sync_churn", true);
        let rows = result.tracer.self_time_table("interval");
        for name in [
            "group.leave",
            "group.join",
            "facade.end_interval",
            "facade.deliver",
        ] {
            assert!(rows.iter().any(|r| r.name == name), "no {name} span");
        }
    }

    #[test]
    fn keytree_bulk_thumbnail() {
        check("keytree_bulk");
    }

    #[test]
    fn same_seed_same_counts() {
        let count = |r: &RunResult, name: &str| {
            r.metrics.iter().find(|m| m.0 == name).map(|m| m.1).unwrap()
        };
        for trace in [false, true] {
            let (a, b) = (thumbnail(TREE, trace), thumbnail(TREE, trace));
            let names: &[&str] = if trace {
                &["keytree.encryptions"]
            } else {
                &[
                    "rekey_encryptions_per_interval",
                    "recv_encryptions_per_member",
                ]
            };
            for name in names {
                assert_eq!(count(&a, name), count(&b, name), "{name}");
            }
        }
    }

    /// Every workload measures at least one per-layer metric no other
    /// does, and every per-layer metric is measured somewhere.
    #[test]
    fn the_catalogue_scopes_every_layer_metric() {
        for m in PER_LAYER {
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
            for w in m.on {
                assert!(catalog::WORKLOADS.iter().any(|d| d.name == *w), "{w}");
            }
        }
        for w in catalog::WORKLOADS {
            assert!(
                PER_LAYER.iter().any(|m| m.on == [w.name]),
                "{} has no layer metric of its own",
                w.name
            );
        }
    }
}
