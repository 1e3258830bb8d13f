//! The repository's one benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path bench/Cargo.toml -- \
//!     --seed <n> [--workload <name>] [--seconds <s>] [--trace [0|1]]
//! ```
//!
//! Runs the named workload, checks its outputs, prints every metric by
//! name with its unit, and ends with one JSON object on the last line of
//! standard output. `--trace 1` makes the separate traced run that yields
//! the per-layer metrics. With no workload named it runs all four, each in
//! a process of its own (`peak_rss_mb` is the process's high-water mark).

mod catalog;
mod gen;
mod probes;
mod run;
mod stats;
mod sut;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{run_workload, RunArgs, RunResult};

struct Cli {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    thumbnail: bool,
}

fn usage() -> String {
    let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: rekey-perfbench --seed <n> [--workload <{}>] [--seconds <s>] [--trace [0|1]] [--thumbnail] | --describe",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
        thumbnail: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{}", usage()))
        };
        match arg.as_str() {
            "--describe" => return Ok(None),
            "--workload" => {
                let name = value("a workload name")?;
                let known = catalog::WORKLOADS
                    .iter()
                    .find(|w| w.name == name.as_str())
                    .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
                cli.workload = Some(known.name);
            }
            "--seed" => {
                let v = value("a number")?;
                cli.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad duration {v}"))?;
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes `--trace 0|1`.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            // The 64-256-member sizes, for this package's tests.
            "--thumbnail" => cli.thumbnail = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(Some(cli))
}

/// `bench/out`, next to this package's manifest: relative to the current
/// directory when run from the repository root (as the driver does), else
/// where the package was built.
fn out_dir() -> PathBuf {
    if std::path::Path::new("bench/Cargo.toml").exists() {
        PathBuf::from("bench/out")
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
    }
}

/// Writes the run's metrics (with the host fields) and, for a traced run,
/// its spans under `bench/out/`.
fn write_outputs(result: &RunResult, seed: u64) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let kind = if result.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    let failures: Vec<String> = result
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace(['"', '\\'], "'")))
        .collect();
    let per_rep: Vec<String> = result
        .timings
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{name}\":{{\"n\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
                s.n, s.min, s.q1, s.median, s.q3, s.max
            )
        })
        .collect();
    std::fs::write(
        dir.join(format!("result-{}-{kind}.json", result.workload)),
        format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"repetitions\":{},{},\"failures\":[{}],\
             \"per_repetition\":{{{}}},\"result\":{}}}\n",
            result.workload,
            result.reps,
            sys::host_info().json_members(),
            failures.join(","),
            per_rep.join(","),
            result.result_json()
        ),
    )?;
    if result.trace {
        std::fs::write(
            dir.join(format!("trace-{}.json", result.workload)),
            result.tracer.to_json(result.workload),
        )?;
    }
    Ok(())
}

/// Runs this program once per workload with the same arguments, one after
/// the other, and waits for each.
fn run_each_in_its_own_process(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program's own path: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in catalog::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", w.name])
            .status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("the {} run did not finish: {status:?}", w.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        return run_each_in_its_own_process(&args);
    };
    let host = sys::host_info();
    println!(
        "# {} cores, {}, Linux {}, {}, commit {}",
        host.nproc, host.cpu_model, host.kernel, host.rustc, host.commit
    );
    let result = run_workload(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        thumbnail: cli.thumbnail,
    });
    print!("{}", result.report());
    if let Err(e) = write_outputs(&result, cli.seed) {
        eprintln!("cannot write under {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    println!("{}", result.result_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Option<Cli>, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let c = cli(&[
            "--workload",
            "sim_mega",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(
            (c.workload, c.seed, c.seconds, c.trace),
            (Some("sim_mega"), 7, 20.0, false)
        );
        let c = cli(&["--trace", "--seed", "3"]).unwrap().unwrap();
        assert_eq!((c.workload, c.seed, c.trace), (None, 3, true));
        assert!(cli(&["--trace", "1"]).unwrap().unwrap().trace);
        assert!(cli(&["--thumbnail"]).unwrap().unwrap().thumbnail);
        assert!(!c.thumbnail);
        assert!(cli(&["--describe"]).unwrap().is_none());
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
