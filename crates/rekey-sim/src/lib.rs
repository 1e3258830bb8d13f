//! Deterministic discrete event simulation engine.
//!
//! The paper's evaluation (§4) says: "For efficiency, we wrote our own
//! discrete event-driven simulator. We simulate the sending and the
//! reception of a message as events." This crate is that simulator:
//!
//! * [`Scheduler`] — a time-ordered event queue with FIFO tie-breaking, so
//!   that every run is reproducible under a fixed seed. `rekey-proto`'s
//!   group runtime builds its own executor on it (and its socket driver
//!   files wall-clock timers in one);
//! * [`Simulation`] / [`Node`] — a small actor-style loop where protocol
//!   participants exchange messages whose delivery latency comes from a
//!   pluggable network delay function (one-way delays from
//!   `rekey_net::Network` in the experiments), with an optional per-sender
//!   egress-serialisation model. It has no fault hooks: the one-shot
//!   sessions that use it (join protocol, overlay multicast) run on a
//!   healthy network;
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
//!
//! # Example
//!
//! ```
//! use rekey_sim::{Ctx, Node, NodeId, Simulation};
//!
//! struct Echo(Option<u64>);
//! impl Node for Echo {
//!     type Msg = u64;
//!     fn receive(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
//!         self.0 = Some(ctx.now());
//!         if msg > 0 {
//!             ctx.send(from, msg - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(vec![Echo(None), Echo(None)], |_, _| 250);
//! sim.inject_at(0, NodeId(0), NodeId(1), 3);
//! let end = sim.run_until_idle();
//! assert_eq!(end, 750); // three 250 µs bounces after the initial delivery
//! ```

mod engine;
mod event;
pub mod fault;

pub use engine::{Ctx, Node, NodeId, Simulation};
pub use event::{Scheduler, SimTime};
pub use fault::{FaultInjector, FaultPlan, FaultStats, GilbertElliott, Outage};

use rand::SeedableRng;

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
