//! T-mesh: the paper's application-layer multicast scheme (§2.3).
//!
//! Given K-consistent neighbor tables (`rekey-table`), the tables *embed*
//! multicast trees rooted at the key server and at every user. A session
//! is one event loop over `rekey-sim`'s `Scheduler`: each copy arrives
//! after its one-way delay, and a member's first copy makes it run the
//! `FORWARD` routine of Fig. 2:
//!
//! * [`forward`] — the pure next-hop computation (`forward_level` logic);
//! * [`TmeshGroup`] / [`MulticastOutcome`] — event-driven sessions with full
//!   delivery, stress and transmission accounting;
//! * [`metrics`] — user stress, application-layer delay, RDP and the
//!   inverse-CDF helpers used by the paper's figures.
//!
//! Theorem 1 (exactly-once delivery under 1-consistency) is checked by
//! [`MulticastOutcome::exactly_once`] and exercised in this crate's tests;
//! the prefix structure of the embedded trees (Lemmas 1, 2 and 4) is
//! verified in the integration tests.
//!
//! ```
//! use rekey_id::{IdSpec, UserId};
//! use rekey_net::{HostId, MatrixNetwork, PlanetLabParams};
//! use rekey_table::{Member, PrimaryPolicy};
//! use rekey_tmesh::{Source, TmeshGroup};
//!
//! # use rand::SeedableRng;
//! let spec = IdSpec::new(2, 4)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
//! let members: Vec<Member> = [[0u16, 1], [1, 0], [1, 2], [3, 3]]
//!     .iter()
//!     .enumerate()
//!     .map(|(h, d)| Member {
//!         id: UserId::new(&spec, d.to_vec()).unwrap(),
//!         host: HostId(h),
//!         joined_at: 0,
//!     })
//!     .collect();
//! let group = TmeshGroup::build(&spec, members, HostId(15), &net, 4, PrimaryPolicy::SmallestRtt);
//! let outcome = group.multicast(&net, Source::Server);
//! assert!(outcome.exactly_once().is_ok());
//! # Ok::<(), rekey_id::IdError>(())
//! ```

pub mod forward;
pub mod metrics;
mod session;

pub use session::{Delivery, MulticastOutcome, Source, TmeshGroup, Transmission};

#[cfg(test)]
mod theorem1;
