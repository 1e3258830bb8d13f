//! Regenerates **Figure 6** of the paper: rekey path latency on the PlanetLab topology (226 joins, T-mesh vs NICE).
//!
//! Prints three TSV tables (inverse CDFs of user stress, application-layer
//! delay in ms, and RDP) with one column per scheme. Override the run count
//! with `--runs N` and group size with `--users N`.

use rekey_bench::{latency_figure_main, Topology};

fn main() {
    latency_figure_main(6, Topology::PlanetLab, 226, false, 100);
}
