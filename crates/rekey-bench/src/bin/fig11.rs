//! Regenerates **Figure 11** of the paper: data path latency on the GT-ITM topology with 1024 user joins.
//!
//! Prints three TSV tables (inverse CDFs of user stress, application-layer
//! delay in ms, and RDP) with one column per scheme. Override the run count
//! with `--runs N` and group size with `--users N`.

use rekey_bench::{latency_figure_main, Topology};

fn main() {
    latency_figure_main(11, Topology::GtItm, 1024, true, 5);
}
