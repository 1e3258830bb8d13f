//! The metric and workload catalogue: every name the benchmark prints,
//! with its unit and direction. `BENCHMARK.json` is generated from this
//! table (`--describe`) and a test pins the committed file to it.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    /// The workloads that exercise the layer and measure the metric. On
    /// the others the layer is off the path and the metric reads 0.
    pub on: &'static [&'static str],
}

pub struct WorkloadDoc {
    pub name: &'static str,
    pub why: &'static str,
}

pub const RUN_SECONDS: u32 = 20;

pub const WORKLOADS: &[WorkloadDoc] = &[
    WorkloadDoc {
        name: SIM,
        why: "sharded simulator, 2% copy loss: bootstrap dealing, tables, event queue and NACK recovery do the work; crypto and sockets almost none",
    },
    WorkloadDoc {
        name: UDP,
        why: "real loopback UDP, open loop at a fixed rekey period: wire codec, sockets, worker timers and member apply do the work; the event queue is bypassed",
    },
    WorkloadDoc {
        name: SYNC,
        why: "synchronous facade with 6% membership turnover per interval: the same group, key-tree and transport layers used for writes, not steady forwarding",
    },
    WorkloadDoc {
        name: TREE,
        why: "key tree, arena and key rings only, 25% of members replaced per interval: derive, seal and open do the work; tables, queue and sockets none",
    },
];

pub const SIM: &str = "sim_mega";
pub const UDP: &str = "udp_loopback";
pub const SYNC: &str = "sync_churn";
pub const TREE: &str = "keytree_bulk";
const ALL: &[&str] = &[SIM, UDP, SYNC, TREE];

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Each is defined, set by the program and never 0 on all four workloads
/// (the contract prints every one of them on every workload).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("cpu_ms_per_interval", "ms", Lower, 0.25),
    e2e("apply_delay_p99_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
    e2e("rekey_encryptions_per_interval", "count", Lower, 0.1),
    e2e("recv_encryptions_per_member", "count", Lower, 0.1),
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        on,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // The issue's workload-specific end-to-end figures: the contract wants
    // every end-to-end metric on every workload, so they live here.
    pl(
        "member_intervals_per_s",
        "1/s",
        Higher,
        "end-to-end",
        &[SIM],
    ),
    pl(
        "sim_apply_delay_p95_ms",
        "sim_ms",
        Lower,
        "end-to-end",
        &[SIM],
    ),
    pl("apply_delay_p50_ms", "ms", Lower, "end-to-end", &[SIM, UDP]),
    pl("admit_ops_per_s", "1/s", Higher, "end-to-end", &[SYNC]),
    pl("rekey_ms", "ms", Lower, "end-to-end", &[SYNC]),
    pl(
        "rekey_encryptions_per_s",
        "1/s",
        Higher,
        "end-to-end",
        &[TREE],
    ),
    pl("member_opens_per_s", "1/s", Higher, "end-to-end", &[TREE]),
    pl("failed_share", "ratio", Lower, "end-to-end", ALL),
    pl("id.from_index_ns", "ns", Lower, "rekey-id", &[SIM, SYNC]),
    pl("id.prefix_test_ns", "ns", Lower, "rekey-id", &[SIM, SYNC]),
    pl("id.clone_ns", "ns", Lower, "rekey-id", &[SIM, SYNC]),
    pl("table.bootstrap_ms", "ms", Lower, "rekey-table", &[SIM]),
    pl("table.check_ms", "ms", Lower, "rekey-table", &[SIM]),
    pl(
        "table.rss_bytes_per_member",
        "B",
        Lower,
        "rekey-table",
        &[SIM],
    ),
    pl("group.leave_us", "us", Lower, "rekey-table", &[SYNC]),
    pl("group.leave_max_us", "us", Lower, "rekey-table", &[SYNC]),
    pl("group.join_us", "us", Lower, "rekey-table", &[SYNC]),
    pl("group.join_max_us", "us", Lower, "rekey-table", &[SYNC]),
    pl(
        "keytree.batch_rekey_ms",
        "ms",
        Lower,
        "rekey-keytree",
        &[TREE, SYNC],
    ),
    pl(
        "keytree.derive_ms",
        "ms",
        Lower,
        "rekey-keytree",
        &[TREE, SYNC],
    ),
    pl(
        "keytree.seal_ms",
        "ms",
        Lower,
        "rekey-keytree",
        &[TREE, SYNC],
    ),
    pl(
        "keytree.encryptions",
        "count",
        Lower,
        "rekey-keytree",
        &[TREE, SYNC],
    ),
    pl(
        "keytree.path_keys_us",
        "us",
        Lower,
        "rekey-keytree",
        &[TREE, SYNC],
    ),
    pl(
        "keytree.absorb_us_per_member",
        "us",
        Lower,
        "rekey-keytree",
        &[TREE, SYNC],
    ),
    pl(
        "crypto.seals_per_us",
        "1/us",
        Higher,
        "rekey-crypto",
        &[TREE],
    ),
    pl("crypto.seal_into_ns", "ns", Lower, "rekey-crypto", &[TREE]),
    pl("crypto.open_ns", "ns", Lower, "rekey-crypto", &[TREE]),
    pl("tmesh.snapshot_ms", "ms", Lower, "rekey-tmesh", &[SYNC]),
    pl("tmesh.next_hops_ns", "ns", Lower, "rekey-tmesh", &[SYNC]),
    pl(
        "transport.split_advance_us",
        "us",
        Lower,
        "rekey-proto",
        &[SYNC, SIM],
    ),
    pl(
        "transport.related_ranges_ns",
        "ns",
        Lower,
        "rekey-proto",
        &[SYNC, SIM],
    ),
    pl(
        "transport.session_ms",
        "ms",
        Lower,
        "rekey-proto",
        &[SYNC, SIM],
    ),
    pl(
        "facade.deliver_ms",
        "ms",
        Lower,
        "rekey-proto",
        &[SYNC, SIM],
    ),
    pl(
        "facade.end_interval_ms",
        "ms",
        Lower,
        "rekey-proto",
        &[SYNC, SIM],
    ),
    pl(
        "facade.handle_rekey_us_per_member",
        "us",
        Lower,
        "rekey-proto",
        &[SYNC, SIM],
    ),
    pl("wire.encode_ns_per_msg", "ns", Lower, "rekey-proto", &[UDP]),
    pl("wire.decode_ns_per_msg", "ns", Lower, "rekey-proto", &[UDP]),
    pl("wire.forward_split_ns", "ns", Lower, "rekey-proto", &[UDP]),
    pl("wire.bytes_per_forward", "B", Lower, "rekey-proto", &[UDP]),
    pl("udp.send_frame_ns", "ns", Lower, "rekey-net", &[UDP]),
    pl("udp.recv_frame_ns", "ns", Lower, "rekey-net", &[UDP]),
    pl(
        "udp.datagrams_per_interval",
        "count",
        Lower,
        "rekey-net",
        &[UDP],
    ),
    pl("udp.bytes_per_interval", "B", Lower, "rekey-net", &[UDP]),
    pl("udp.kernel_drops", "count", Lower, "rekey-net", &[UDP]),
    pl("udp.decode_errors", "count", Lower, "rekey-net", &[UDP]),
    pl("net.delay_query_ns", "ns", Lower, "rekey-net", &[UDP]),
    pl("sim.schedule_pop_ns", "ns", Lower, "rekey-sim", &[SIM]),
    pl("sim.peak_queue_depth", "count", Lower, "rekey-sim", &[SIM]),
    pl("sim.delivered", "count", Lower, "rekey-sim", &[SIM]),
    pl("runtime.shard.bootstrap_ms", "ms", Lower, "driver", &[SIM]),
    pl(
        "runtime.shard.drive_ms_per_interval",
        "ms",
        Lower,
        "driver",
        &[SIM],
    ),
    pl("runtime.shard.finish_ms", "ms", Lower, "driver", &[SIM]),
    pl("runtime.udp.bootstrap_ms", "ms", Lower, "driver", &[UDP]),
    pl("runtime.udp.finish_ms", "ms", Lower, "driver", &[UDP]),
    pl(
        "runtime.forward_copies",
        "count",
        Lower,
        "driver",
        &[SIM, UDP],
    ),
    pl("runtime.copies_lost", "count", Lower, "driver", &[SIM, UDP]),
    pl("runtime.nacks", "count", Lower, "driver", &[SIM, UDP]),
    pl(
        "runtime.retransmissions",
        "count",
        Lower,
        "driver",
        &[SIM, UDP],
    ),
    pl("runtime.resyncs", "count", Lower, "driver", &[SIM, UDP]),
    pl(
        "runtime.recovery_encryptions",
        "count",
        Lower,
        "driver",
        &[SIM, UDP],
    ),
    pl(
        "runtime.recovery_per_nack",
        "ratio",
        Lower,
        "driver",
        &[SIM, UDP],
    ),
    pl(
        "metrics.snapshot_json_ms",
        "ms",
        Lower,
        "rekey-metrics",
        &[SIM],
    ),
    pl(
        "metrics.hist_record_ns",
        "ns",
        Lower,
        "rekey-metrics",
        &[SIM],
    ),
    pl("trace_overhead_pct", "%", Lower, "bench", ALL),
    pl("trace_self_sum_pct", "%", Lower, "bench", ALL),
    pl("generator_late_ms", "ms", Lower, "bench", ALL),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

/// The text of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"--quiet\", \
         \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Values set while a workload runs, each name at most once.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// # Panics
    ///
    /// Panics on a name outside the catalogue or one already set — either
    /// is a bug in the benchmark, not in the program.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        assert!(!self.has(name), "metric {name} set twice");
        self.values.push((name, value));
    }

    pub fn has(&self, name: &str) -> bool {
        self.values.iter().any(|&(n, _)| n == name)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s has the largest bound");
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with --describe");
    }
}
