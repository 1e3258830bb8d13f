//! What the benchmark reads from the host: process CPU time, resident
//! memory, and the fields that identify the machine a number came from.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// CPU seconds (user + system) this process has used so far, over all its
/// threads — those that already exited included, which `/proc/self/task`
/// would miss and the sharded runtime spawns per window.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, the only platform the benchmark supports) and the
    // call writes nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn status_kib(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) in bytes.
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

/// The fields that go into every JSON output and into `BASELINE.md`.
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: &'static str,
    pub commit: &'static str,
}

pub fn host_info() -> HostInfo {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    HostInfo {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu_model,
        kernel,
        rustc: env!("PERFBENCH_RUSTC"),
        commit: env!("PERFBENCH_COMMIT"),
    }
}

impl HostInfo {
    /// `"nproc":2,"cpu_model":"…",…` — the members, without braces.
    pub fn json_members(&self) -> String {
        format!(
            "\"nproc\":{},\"cpu_model\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.kernel.replace('"', "'"),
            self.rustc.replace('"', "'"),
            self.commit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
