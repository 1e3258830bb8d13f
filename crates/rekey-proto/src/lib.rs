//! Group rekeying protocols: topology-aware user ID assignment, membership
//! lifecycle, rekey message splitting, and the seven rekey transport
//! protocols of Table 2 (Zhang, Lam & Liu, ICDCS 2005, §2.5, §3, §4.3).
//!
//! * [`AssignParams`] — the four-step ID assignment protocol of §3.1
//!   (`P = 10`, `F = 80`-percentile, thresholds `R = (150, 30, 9, 3)` ms)
//!   including the footnote-3 uniqueness fallback;
//! * [`Group`] — the key server's view: membership, ID assignment, and
//!   K-consistent neighbor-table maintenance under churn;
//! * [`tmesh_rekey_transport`] / [`cluster_rekey_transport`] —
//!   `REKEY-MESSAGE-SPLIT` (Fig. 5) over T-mesh, plus the cluster-heuristic
//!   delivery of Appendix B, on the indexed core of [`transport`];
//! * [`nice_rekey_transport`], [`ipmc_rekey_transport`] — the NICE- and
//!   IP-multicast-based baselines of the protocol matrix, producing the
//!   per-user / per-link encryption counts of Fig. 13;
//! * [`run_concurrent_session`] — rekey and data transport sharing
//!   bandwidth-limited access links, measuring the data-latency inflation
//!   an unsplit rekey burst causes (the §1 motivation, quantified);
//! * [`GroupServer`] / [`UserAgent`] — the synchronous facade, and
//!   [`runtime`] — the same protocol as message-level state machines on
//!   the simulator ([`ShardedGroupRuntime`]) or real UDP sockets
//!   ([`UdpGroupDriver`]), two types with no trait over them: each
//!   exposes its own clock and churn calls, and both build, poll and audit
//!   members through the same core helpers. On the simulator a joiner
//!   runs the §3.1 probe itself, with `Query` and `Ping` messages. [`SERVER_NODE`],
//!   [`replica_node`], [`member_node_with_replicas`] and [`modulo_cells`]
//!   map fault plans onto their node numbering.
//!
//! ```
//! use rekey_id::IdSpec;
//! use rekey_net::{HostId, MatrixNetwork, PlanetLabParams};
//! use rekey_proto::{AssignParams, Group};
//! use rekey_table::PrimaryPolicy;
//! # use rand::SeedableRng;
//!
//! let spec = IdSpec::new(3, 4)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
//! let mut group = Group::new(
//!     &spec,
//!     HostId(15),
//!     4,
//!     PrimaryPolicy::SmallestRtt,
//!     AssignParams::for_depth(3),
//! );
//! for h in 0..8 {
//!     group.join(HostId(h), &net, h as u64)?;
//! }
//! group.check()?; // K-consistent tables (Definition 3)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod assign;
mod chaos;
mod concurrent;
mod facade;
mod group;
mod protocols;
mod recovery;
pub mod runtime;
mod split;
pub mod transport;

pub use assign::{AssignParams, AssignStats};
pub use chaos::{member_node_with_replicas, modulo_cells, replica_node, SERVER_NODE};
pub use concurrent::{run_concurrent_session, ConcurrentOutcome, RekeyLoad, TrafficParams};
pub use facade::{
    AgentError, GroupConfig, GroupServer, IntervalOutcome, RekeyDelivery, RekeyError, RekeyStatus,
    UserAgent, WelcomePacket,
};
pub use group::{Group, GroupError, JoinOutcome};
pub use protocols::{ipmc_rekey_transport, nice_rekey_transport};
pub use recovery::{lossy_rekey_transport, LossyReport};
pub use runtime::{
    ChurnEvent, ChurnOp, MetricsSnapshot, RuntimeConfig, RuntimeConfigBuilder, ShardedGroupRuntime,
    UdpGroupDriver,
};
pub use split::{cluster_rekey_transport, tmesh_rekey_transport};
pub use transport::{BandwidthReport, SplitIndex, SplitIndexMaintainer, TransportOptions};

/// The types nearly every embedder needs, in one import: runtime
/// configuration, the facade entry points, the two runtime drivers and
/// metrics snapshots.
///
/// ```
/// use rekey_proto::prelude::*;
/// let cfg = RuntimeConfig::builder().build();
/// # let _ = cfg;
/// ```
pub mod prelude {
    pub use crate::facade::{GroupConfig, GroupServer, UserAgent};
    pub use crate::runtime::{
        MetricsSnapshot, RuntimeConfig, RuntimeConfigBuilder, ShardedGroupRuntime, UdpGroupDriver,
    };
}
