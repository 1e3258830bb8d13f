//! The four workloads. Each exposes `rep`, one repetition of
//! set-up → drive → finish → verify with the same seed-generated inputs,
//! and returns what it measured as a [`Rep`].

pub mod keytree_bulk;
pub mod sim_mega;
pub mod sync_churn;
pub mod udp_loopback;

use std::collections::HashMap;
use std::time::Instant;

use crate::catalog::Metrics;
use crate::stats;
use crate::sut;
use crate::sys;
use crate::trace::Tracer;

/// Wall and process-CPU milliseconds of one timed section.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cost {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, other: Cost) -> Cost {
        Cost {
            wall_ms: self.wall_ms + other.wall_ms,
            cpu_ms: self.cpu_ms + other.cpu_ms,
        }
    }
}

/// A running stopwatch over both clocks.
pub struct Lap {
    wall: Instant,
    cpu_s: f64,
}

impl Lap {
    pub fn start() -> Lap {
        Lap {
            wall: Instant::now(),
            cpu_s: sys::process_cpu_s(),
        }
    }

    /// Wall ms so far, without stopping.
    pub fn wall_ms(&self) -> f64 {
        self.wall.elapsed().as_secs_f64() * 1e3
    }

    pub fn stop(self) -> Cost {
        Cost {
            wall_ms: self.wall_ms(),
            cpu_ms: (sys::process_cpu_s() - self.cpu_s) * 1e3,
        }
    }
}

/// How many sampled members carry a shadow key ring checked with
/// `KeyRing::matches_path`.
pub const RING_SAMPLE: usize = 64;

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Substrate + bootstrap until the first interval can start.
    pub setup_s: f64,
    pub finish_s: f64,
    pub verify_s: f64,
    /// `VmHWM` after finish, before verify.
    pub peak_rss_mib: f64,
    /// Members live at the end.
    pub live_members: u64,
    /// Per interval: time inside the program (closed loop), or the whole
    /// interval where a driver paces itself.
    pub costs: Vec<Cost>,
    /// Wall ms of each interval, generator and checks included.
    pub interval_wall_ms: Vec<f64>,
    /// How late the generator issued each interval's work (open loop), or
    /// how long it held the program up between calls (closed loop).
    pub generator_ms: Vec<f64>,
    /// Rekey → applied, p99 over members × intervals.
    pub apply_p99_ms: f64,
    /// Σ encryptions of the interval messages the key server produced
    /// (the paper's rekey cost, Fig. 12).
    pub rekey_encryptions: u64,
    /// Encryptions a live member received per interval (Fig. 13).
    pub recv_encryptions_per_member: f64,
    /// Correctness checks made / failed (and intervals or phases that
    /// missed their deadline).
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-layer counts and ratios native to this workload. Exact counts
    /// must repeat across repetitions where the workload is deterministic.
    pub counts: Vec<(&'static str, f64)>,
    /// Per-layer timings this workload measures itself, one sample per
    /// repetition (the run reports their median).
    pub timed: Vec<(&'static str, f64)>,
    /// The end state, rendered: equal across repetitions of one seed.
    pub fingerprint: String,
}

impl Rep {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Sets the apply-delay p99 from raw per-member samples (ms).
    pub fn set_apply_delays(&mut self, samples_ms: &[f64]) {
        self.apply_p99_ms = stats::percentile_or_nearest(samples_ms, 0.99);
    }

    /// Sets the apply-delay p99 from the program's own histogram of µs
    /// delays and returns the median (ms).
    pub fn set_apply_delays_from_hist(&mut self, hist_us: &sut::Hist) -> f64 {
        let n = sut::hist_count(hist_us) as usize;
        let at = |q| sut::hist_percentile(hist_us, stats::supported_quantile(n, q)) as f64 / 1e3;
        self.apply_p99_ms = at(0.99);
        at(0.5)
    }
}

/// The drivers' recovery counters, as per-layer counts.
pub fn recovery_counts(c: &sut::RunCounters) -> [(&'static str, f64); 7] {
    [
        ("runtime.forward_copies", c.forward_copies as f64),
        ("runtime.copies_lost", c.copies_lost as f64),
        ("runtime.nacks", c.nacks as f64),
        ("runtime.retransmissions", c.retransmissions as f64),
        ("runtime.resyncs", c.resyncs as f64),
        (
            "runtime.recovery_encryptions",
            c.recovery_encryptions as f64,
        ),
        (
            "runtime.recovery_per_nack",
            c.recovery_encryptions as f64 / (c.nacks as f64).max(1.0),
        ),
    ]
}

/// A rekey message split per member by Lemma 3 — a member needs an
/// encryption iff the ID of the key it is sealed under is a prefix of the
/// member's ID. Where no transport runs (`keytree_bulk`, the key-tree
/// probe) this is the generator's job.
pub struct Shares<'a> {
    needed: Vec<&'a sut::Enc>,
    bounds: Vec<usize>,
}

impl<'a> Shares<'a> {
    pub fn split(message: &'a [sut::Enc], members: &[sut::Id]) -> Shares<'a> {
        let mut by_prefix: HashMap<&[u16], Vec<&sut::Enc>> = HashMap::new();
        for enc in message {
            by_prefix
                .entry(sut::enc_id_digits(enc))
                .or_default()
                .push(enc);
        }
        let mut needed = Vec::new();
        let mut bounds = vec![0];
        for id in members {
            let digits = sut::id_digits(id);
            // Deepest wrapping key first, so one absorb pass resolves the chain.
            for len in (0..=digits.len()).rev() {
                if let Some(encs) = by_prefix.get(&digits[..len]) {
                    needed.extend(encs);
                }
            }
            bounds.push(needed.len());
        }
        Shares { needed, bounds }
    }

    /// What member `m` (in the order given to `split`) must receive.
    pub fn of(&self, m: usize) -> impl Iterator<Item = &'a sut::Enc> + Clone + '_ {
        self.needed[self.bounds[m]..self.bounds[m + 1]]
            .iter()
            .copied()
    }
}

/// What a repetition is asked to do beyond measuring.
pub struct RepOpts<'a> {
    pub seed: u64,
    pub tracer: &'a mut Tracer,
    /// Traced run, last repetition: run the probes of the layers on this
    /// workload's path on the end state and record them here.
    pub probes: Option<&'a mut Metrics>,
}
