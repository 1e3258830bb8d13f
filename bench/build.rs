//! Records which compiler built the benchmark and, where the checkout is a
//! git repository, which commit — both go into every JSON output.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        first_line(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let commit = first_line(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");

    println!("cargo:rerun-if-changed=build.rs");
    // A path that does not exist would re-run this script on every build.
    if std::path::Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
