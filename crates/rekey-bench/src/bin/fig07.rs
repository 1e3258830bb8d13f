//! Regenerates **Figure 7** of the paper: rekey path latency on the GT-ITM topology with 256 user joins.
//!
//! Prints three TSV tables (inverse CDFs of user stress, application-layer
//! delay in ms, and RDP) with one column per scheme. Override the run count
//! with `--runs N` and group size with `--users N`.

use rekey_bench::{latency_figure_main, Topology};

fn main() {
    latency_figure_main(7, Topology::GtItm, 256, false, 10);
}
