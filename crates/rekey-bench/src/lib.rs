//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Every figure has a dedicated binary in `src/bin/` (`fig06` … `fig14`,
//! plus `join_cost` and the ablations); each prints TSV series to stdout.
//! `bench_runtime` prints the 65k / 262k / 1M mega sweep of the simulated
//! executor. The recorded performance baseline lives in the standalone
//! `bench/` package, not here. `EXPERIMENTS.md` in the repository root
//! records paper-vs-measured for every experiment.

pub mod harness;
pub mod output;
pub mod schema;

pub use harness::{
    arg_usize, grow_group, grow_nice, latency_figure, mega_runtime_fixture,
    rekey_message_for_churn, ChurnPlan, GroupBuild, LatencyConfig, LatencyFigure, SchemeSeries,
    Topology,
};
pub use output::{fraction_axis, latency_figure_main, print_series_table, ranked_mean};
