//! Deterministic discrete event simulation engine.
//!
//! The paper's evaluation (§4) says: "For efficiency, we wrote our own
//! discrete event-driven simulator. We simulate the sending and the
//! reception of a message as events." This crate is that simulator:
//!
//! * [`Scheduler`] — a time-ordered event queue with FIFO tie-breaking, so
//!   that every run is reproducible under a fixed seed. It is the only
//!   event machinery in the workspace: `rekey-proto`'s group runtime builds
//!   its executor on it (and its socket driver files wall-clock timers in
//!   one), and each one-shot session (a T-mesh multicast, the concurrent
//!   rekey/data contention run, the message-level join) is a plain loop
//!   that pops an event, handles it and schedules what it sends;
//! * [`NodeId`] — the index of a simulated node (key server replica or
//!   member), shared by the executors and the fault layer;
//! * [`seeded_rng`] — the workspace-standard deterministic RNG;
//! * [`fault`] — composable chaos injection ([`FaultPlan`]): partitions,
//!   node outages, delay jitter, and i.i.d. or Gilbert–Elliott burst
//!   loss, all deterministic under a fixed seed, compiled into a
//!   [`FaultInjector`] that an executor consults as it routes events.
//!
//! Time is integer microseconds everywhere ([`SimTime`]). The sans-I/O
//! protocol state machines in `rekey-proto` are written against this
//! unit through their driver's clock, which is what lets the same code
//! run under the simulator *and* against the wall clock: the real-socket
//! driver simply reports microseconds since its epoch as [`SimTime`].

mod event;
pub mod fault;

pub use event::{Scheduler, SimTime};
pub use fault::{FaultInjector, FaultPlan, FaultStats, GilbertElliott, Outage};

use rand::SeedableRng;

/// Identifier of a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The deterministic RNG used across the workspace's simulations.
pub type SimRng = rand_chacha::ChaCha12Rng;

/// Creates the workspace-standard deterministic RNG from a 64-bit seed.
///
/// ```
/// use rand::Rng;
/// let mut a = rekey_sim::seeded_rng(1);
/// let mut b = rekey_sim::seeded_rng(1);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// Derives a per-node RNG from a base seed and the node's id, so every
/// node in a simulation draws from its own deterministic stream (used for
/// e.g. heartbeat phase stagger) regardless of the order in which other
/// nodes consume randomness.
///
/// The mixing is a splitmix64 round, so adjacent node ids do not produce
/// correlated ChaCha seeds.
pub fn node_rng(base_seed: u64, node: NodeId) -> SimRng {
    let mut z = base_seed ^ (node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seeded_rng(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_deterministic_and_seed_sensitive() {
        let x: u64 = seeded_rng(7).gen();
        let y: u64 = seeded_rng(7).gen();
        let z: u64 = seeded_rng(8).gen();
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn node_rng_streams_are_independent_and_reproducible() {
        let a: u64 = node_rng(7, NodeId(0)).gen();
        let b: u64 = node_rng(7, NodeId(1)).gen();
        let c: u64 = node_rng(8, NodeId(0)).gen();
        assert_ne!(a, b, "different nodes draw different streams");
        assert_ne!(a, c, "different base seeds draw different streams");
        assert_eq!(a, node_rng(7, NodeId(0)).gen::<u64>(), "reproducible");
    }
}
