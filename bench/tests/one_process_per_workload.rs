//! With no workload named, the benchmark runs each workload in a process
//! of its own: `peak_rss_mb` is a process-wide high-water mark that is
//! never reset, so in one shared process every workload after the largest
//! would report the largest one's.

use std::process::Command;

/// `(workload, peak_rss_mb)` of every result a run printed, and how many
/// processes printed a host line.
fn run(args: &[&str]) -> (Vec<(String, f64)>, usize) {
    let out = Command::new(env!("CARGO_BIN_EXE_rekey-perfbench"))
        .args(["--thumbnail", "--seed", "3", "--seconds", "0.1"])
        .args(args)
        .output()
        .expect("the benchmark starts");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut results = Vec::new();
    let mut workload = String::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            workload = rest.split_whitespace().next().unwrap().to_string();
        } else if line.starts_with("{\"correct\"") {
            let key = "\"peak_rss_mb\": {\"value\": ";
            let at = line.find(key).expect("an end-to-end result") + key.len();
            let value = line[at..].split(',').next().unwrap().parse().unwrap();
            results.push((workload.clone(), value));
        }
    }
    let processes = text.lines().filter(|l| l.starts_with("# ")).count();
    (results, processes)
}

#[test]
fn all_workloads_run_agrees_with_single_workload_runs() {
    let (all, processes) = run(&[]);
    let names: Vec<&str> = all.iter().map(|(w, _)| w.as_str()).collect();
    assert_eq!(
        names,
        ["sim_mega", "udp_loopback", "sync_churn", "keytree_bulk"]
    );
    assert_eq!(processes, 4, "one process, one host line, per workload");
    for (workload, together) in &all {
        let (single, _) = run(&["--workload", workload]);
        let alone = single[0].1;
        assert!(
            (together - alone).abs() <= 0.2 * alone,
            "{workload}: {together} MiB in the all-workloads run, {alone} MiB alone"
        );
    }
}
