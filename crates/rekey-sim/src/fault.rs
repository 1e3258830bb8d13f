//! Composable fault injection: partitions, node outages, delay jitter,
//! and i.i.d. or burst (Gilbert–Elliott) message loss.
//!
//! A [`FaultPlan`] is a declarative schedule of faults, built fluently and
//! then compiled into a [`FaultInjector`] that an executor consults as it
//! routes events (`rekey-proto`'s simulated runtime asks at send time for
//! cuts, loss and jitter, and at delivery time for outages):
//!
//! * **partitions** cut every message crossing cell boundaries during the
//!   window ([`FaultInjector::cut`], applied to all traffic);
//! * **outages** take single nodes (including a server) off the network
//!   for a window ([`FaultInjector::is_down`]); the plan exposes the
//!   windows via [`FaultPlan::outages`] so the driver can schedule
//!   restart events at each window's end;
//! * **jitter** adds a uniform random extra delay per network send
//!   ([`FaultInjector::extra_delay`]), which naturally reorders messages
//!   between a pair of nodes;
//! * **loss** combines an i.i.d. per-message probability with an optional
//!   [`GilbertElliott`] two-state burst process ([`FaultInjector::lose`]);
//!   the driver decides which traffic class the draw applies to.
//!
//! All randomness comes from per-sender streams derived with
//! [`node_rng`], so a run is bit-for-bit reproducible for a fixed seed
//! and fault plan regardless of how other nodes consume randomness.
//!
//! ```
//! use rekey_sim::{FaultPlan, GilbertElliott, NodeId};
//!
//! let plan = FaultPlan::new()
//!     .partition(
//!         vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
//!         1_000_000,
//!         5_000_000,
//!     )
//!     .outage(NodeId(0), 7_000_000, 9_000_000)
//!     .jitter(20_000)
//!     .burst_loss(GilbertElliott::moderate());
//! let mut inj = plan.injector(42);
//! assert!(inj.cut(2_000_000, NodeId(1), NodeId(2)), "cross-cell, in window");
//! assert!(!inj.cut(2_000_000, NodeId(2), NodeId(3)), "same cell");
//! assert!(!inj.cut(6_000_000, NodeId(1), NodeId(2)), "window over");
//! assert!(inj.is_down(8_000_000, NodeId(0)));
//! assert!(!inj.is_down(9_000_000, NodeId(0)), "windows are half-open");
//! assert!(inj.extra_delay(NodeId(1), NodeId(2)) <= 20_000);
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;

use rand::Rng;

use crate::event::SimTime;
use crate::{node_rng, NodeId, SimRng};

/// Parameters of a Gilbert–Elliott two-state loss process: the channel
/// alternates between a *good* and a *bad* state, each with its own loss
/// probability, producing the correlated loss bursts of real paths that an
/// i.i.d. model cannot (one lost rekey copy makes the next loss likely).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-message probability of moving good → bad.
    pub p_enter_bad: f64,
    /// Per-message probability of moving bad → good.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A moderate burst profile: rare, short bad periods with heavy loss
    /// inside them (stationary mean loss ≈ 5%).
    pub fn moderate() -> GilbertElliott {
        GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.25,
            loss_good: 0.005,
            loss_bad: 0.60,
        }
    }

    /// Stationary mean loss rate of the chain, for comparing a burst
    /// profile against an i.i.d. rate in experiments.
    #[cfg(test)]
    pub(crate) fn mean_loss(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom == 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_enter_bad / denom;
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// A scheduled network partition: during `[from, until)` only messages
/// within one cell are delivered. Nodes not listed in any cell share an
/// implicit default cell.
#[derive(Debug, Clone)]
struct Partition {
    /// Cell index by node id (`IMPLICIT_CELL` for unlisted nodes), so a
    /// cut decision is two lookups however large the cells are.
    cell_of: Vec<u32>,
    from: SimTime,
    until: SimTime,
}

/// The cell every node absent from the listed cells belongs to.
const IMPLICIT_CELL: u32 = u32::MAX;

impl Partition {
    fn new(cells: &[Vec<NodeId>], from: SimTime, until: SimTime) -> Partition {
        let nodes = cells.iter().flatten().map(|n| n.0 + 1).max().unwrap_or(0);
        let mut cell_of = vec![IMPLICIT_CELL; nodes];
        for (cell, members) in cells.iter().enumerate() {
            for node in members {
                // A node listed twice stays in its first cell.
                if cell_of[node.0] == IMPLICIT_CELL {
                    cell_of[node.0] = cell as u32;
                }
            }
        }
        Partition {
            cell_of,
            from,
            until,
        }
    }

    fn cell_of(&self, node: NodeId) -> u32 {
        self.cell_of.get(node.0).copied().unwrap_or(IMPLICIT_CELL)
    }
}

/// A scheduled single-node outage window (see [`FaultPlan::outage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The node taken off the network.
    pub node: NodeId,
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive): the node is reachable again at
    /// `until`, so a restart event injected at `until` is delivered.
    pub until: SimTime,
}

/// A declarative, composable schedule of faults. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    partitions: Vec<Partition>,
    outages: Vec<Outage>,
    jitter_max: SimTime,
    iid_loss: f64,
    burst: Option<GilbertElliott>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Partitions the network into `cells` during `[from, until)`: a
    /// message is cut iff its sender and receiver are in different cells.
    /// Nodes absent from every cell share one implicit extra cell.
    /// Multiple (even overlapping) partitions compose: a message is cut if
    /// any active partition separates the endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `from >= until`.
    pub fn partition(
        mut self,
        cells: Vec<Vec<NodeId>>,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        assert!(
            from < until,
            "partition window is empty ({from} >= {until})"
        );
        self.partitions.push(Partition::new(&cells, from, until));
        self
    }

    /// Takes `node` off the network during `[from, until)`: every delivery
    /// addressed to it in the window — including its own timers — is
    /// discarded. Its state is retained; the driver models a restart by
    /// injecting a message at or after `until` (see [`FaultPlan::outages`]).
    ///
    /// # Panics
    ///
    /// Panics if `from >= until`.
    pub fn outage(mut self, node: NodeId, from: SimTime, until: SimTime) -> FaultPlan {
        assert!(from < until, "outage window is empty ({from} >= {until})");
        self.outages.push(Outage { node, from, until });
        self
    }

    /// Adds a uniform random extra delay in `[0, max]` µs to every network
    /// send, which reorders messages (two sends on the same link can swap
    /// whenever their spacing is below the jitter magnitude).
    pub fn jitter(mut self, max: SimTime) -> FaultPlan {
        self.jitter_max = max;
        self
    }

    /// Independent per-message loss with probability `p`, on top of any
    /// burst process.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    #[cfg(test)]
    pub(crate) fn iid_loss(mut self, p: f64) -> FaultPlan {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        self.iid_loss = p;
        self
    }

    /// Burst loss from a per-sender [`GilbertElliott`] chain, advanced one
    /// step per loss draw.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` (loss probabilities
    /// must additionally be below 1).
    pub fn burst_loss(mut self, ge: GilbertElliott) -> FaultPlan {
        for p in [ge.p_enter_bad, ge.p_exit_bad] {
            assert!(
                (0.0..=1.0).contains(&p),
                "transition probability must be in [0, 1]"
            );
        }
        for p in [ge.loss_good, ge.loss_bad] {
            assert!(
                (0.0..1.0).contains(&p),
                "loss probability must be in [0, 1)"
            );
        }
        self.burst = Some(ge);
        self
    }

    /// The scheduled outage windows, for the driver to pair each with a
    /// restart event at `until`.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Compiles the plan into a deterministic injector seeded by `seed`.
    pub fn injector(&self, seed: u64) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            seed,
            loss_streams: BTreeMap::new(),
            jitter_streams: BTreeMap::new(),
            partition_cuts: Cell::new(0),
            loss_drops: Cell::new(0),
        }
    }
}

/// Counters of faults that actually fired, as opposed to the faults that
/// were merely scheduled: a partition only shows up here when a message
/// tried to cross it, and a loss process only when a draw came up lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages cut by an active partition.
    pub partition_cuts: u64,
    /// Loss draws (i.i.d. or burst) that came up lost.
    pub loss_drops: u64,
}

/// Per-sender loss state: an RNG stream plus the Gilbert–Elliott channel
/// state (`true` = bad).
struct LossStream {
    rng: SimRng,
    in_bad: bool,
}

/// The runtime form of a [`FaultPlan`]: pure predicates over
/// `(time, endpoints)` plus per-sender random streams. One injector is
/// shared by a simulation's loss, jitter, and downtime hooks.
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    loss_streams: BTreeMap<usize, LossStream>,
    jitter_streams: BTreeMap<usize, SimRng>,
    // `Cell`s because `cut` is called through the simulation's loss hook
    // with a shared borrow.
    partition_cuts: Cell<u64>,
    loss_drops: Cell<u64>,
}

/// Domain separators so the loss and jitter streams of one node differ.
const LOSS_STREAM: u64 = 0x4C4F_5353_4641_5544; // "LOSSFAUD"
const JITTER_STREAM: u64 = 0x4A49_5454_4552_0001;

impl FaultInjector {
    /// `true` iff an active partition separates `from` and `to` at `now`.
    /// Applies to every traffic class: a partition cuts control traffic
    /// and bulk traffic alike.
    pub fn cut(&self, now: SimTime, from: NodeId, to: NodeId) -> bool {
        let cut = self
            .plan
            .partitions
            .iter()
            .any(|p| now >= p.from && now < p.until && p.cell_of(from) != p.cell_of(to));
        if cut {
            self.partition_cuts.set(self.partition_cuts.get() + 1);
        }
        cut
    }

    /// Draws the loss processes for one message sent by `from`: the i.i.d.
    /// draw and one step of the sender's Gilbert–Elliott chain. Both
    /// streams advance on every call, so the outcome sequence of one
    /// sender is independent of every other sender's traffic.
    pub fn lose(&mut self, from: NodeId) -> bool {
        if self.plan.iid_loss == 0.0 && self.plan.burst.is_none() {
            return false;
        }
        let seed = self.seed;
        let stream = self
            .loss_streams
            .entry(from.0)
            .or_insert_with(|| LossStream {
                rng: node_rng(seed ^ LOSS_STREAM, from),
                in_bad: false,
            });
        let mut lost = false;
        if self.plan.iid_loss > 0.0 {
            lost |= stream.rng.gen_bool(self.plan.iid_loss);
        }
        if let Some(ge) = &self.plan.burst {
            let flip = if stream.in_bad {
                ge.p_exit_bad
            } else {
                ge.p_enter_bad
            };
            if stream.rng.gen_bool(flip) {
                stream.in_bad = !stream.in_bad;
            }
            let p = if stream.in_bad {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            if p > 0.0 {
                lost |= stream.rng.gen_bool(p);
            }
        }
        if lost {
            self.loss_drops.set(self.loss_drops.get() + 1);
        }
        lost
    }

    /// Counters of the faults that fired so far (see [`FaultStats`]).
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            partition_cuts: self.partition_cuts.get(),
            loss_drops: self.loss_drops.get(),
        }
    }

    /// Draws the extra delay for one network send by `from` (0 without
    /// jitter). The `to` endpoint is accepted for symmetry with the
    /// simulation's jitter hook but does not select the stream.
    pub fn extra_delay(&mut self, from: NodeId, _to: NodeId) -> SimTime {
        if self.plan.jitter_max == 0 {
            return 0;
        }
        let seed = self.seed;
        let max = self.plan.jitter_max;
        let rng = self
            .jitter_streams
            .entry(from.0)
            .or_insert_with(|| node_rng(seed ^ JITTER_STREAM, from));
        rng.gen_range(0..=max)
    }

    /// `true` iff `node` is inside one of its outage windows at `now`.
    pub fn is_down(&self, now: SimTime, node: NodeId) -> bool {
        self.plan
            .outages
            .iter()
            .any(|o| o.node == node && now >= o.from && now < o.until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_cuts_only_cross_cell_messages_in_window() {
        let plan =
            FaultPlan::new().partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]], 100, 200);
        let inj = plan.injector(1);
        assert!(!inj.cut(99, NodeId(0), NodeId(2)), "before the window");
        assert!(inj.cut(100, NodeId(0), NodeId(2)));
        assert!(inj.cut(199, NodeId(2), NodeId(1)), "cuts are symmetric");
        assert!(!inj.cut(200, NodeId(0), NodeId(2)), "half-open window");
        assert!(!inj.cut(150, NodeId(0), NodeId(1)), "same cell");
        // Unlisted nodes share the implicit default cell.
        assert!(!inj.cut(150, NodeId(7), NodeId(8)));
        assert!(inj.cut(150, NodeId(7), NodeId(0)));
    }

    #[test]
    fn overlapping_partitions_compose() {
        let plan = FaultPlan::new()
            .partition(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]], 0, 100)
            .partition(vec![vec![NodeId(1)], vec![NodeId(2)]], 50, 150);
        let inj = plan.injector(1);
        assert!(inj.cut(25, NodeId(0), NodeId(1)));
        assert!(!inj.cut(25, NodeId(1), NodeId(2)), "second not active yet");
        assert!(inj.cut(75, NodeId(1), NodeId(2)), "either partition cuts");
        // After the first expires, nodes unlisted in the second share its
        // implicit default cell again.
        assert!(!inj.cut(125, NodeId(0), NodeId(7)), "first expired");
        assert!(
            inj.cut(125, NodeId(0), NodeId(1)),
            "0 is in the second's default cell"
        );
    }

    #[test]
    fn outage_windows_are_per_node_and_half_open() {
        let plan = FaultPlan::new()
            .outage(NodeId(3), 10, 20)
            .outage(NodeId(3), 40, 50)
            .outage(NodeId(5), 15, 25);
        let inj = plan.injector(1);
        assert!(inj.is_down(10, NodeId(3)));
        assert!(!inj.is_down(20, NodeId(3)), "reachable again at `until`");
        assert!(inj.is_down(45, NodeId(3)), "second window");
        assert!(inj.is_down(16, NodeId(5)));
        assert!(!inj.is_down(16, NodeId(4)));
        assert_eq!(plan.outages().len(), 3);
    }

    #[test]
    fn iid_loss_rate_is_roughly_observed() {
        let mut inj = FaultPlan::new().iid_loss(0.25).injector(7);
        let lost = (0..10_000).filter(|_| inj.lose(NodeId(1))).count();
        assert!((2_000..3_000).contains(&lost), "got {lost} / 10000");
    }

    #[test]
    fn burst_loss_is_correlated_but_matches_mean() {
        let ge = GilbertElliott::moderate();
        let mut inj = FaultPlan::new().burst_loss(ge).injector(11);
        let draws: Vec<bool> = (0..40_000).map(|_| inj.lose(NodeId(1))).collect();
        let lost = draws.iter().filter(|&&l| l).count() as f64 / draws.len() as f64;
        let mean = ge.mean_loss();
        assert!(
            (lost - mean).abs() < 0.02,
            "observed {lost:.3} vs stationary {mean:.3}"
        );
        // Burstiness: the probability that a loss follows a loss is well
        // above the marginal rate (i.i.d. would make them equal).
        let mut pairs = 0;
        let mut after_loss = 0;
        for w in draws.windows(2) {
            if w[0] {
                pairs += 1;
                if w[1] {
                    after_loss += 1;
                }
            }
        }
        let conditional = after_loss as f64 / pairs as f64;
        assert!(
            conditional > 2.0 * mean,
            "loss-after-loss {conditional:.3} not bursty vs mean {mean:.3}"
        );
    }

    #[test]
    fn per_sender_streams_are_deterministic_and_independent() {
        let plan = FaultPlan::new().iid_loss(0.3).jitter(1_000);
        let mut a = plan.injector(42);
        let mut b = plan.injector(42);
        // Interleave differently: same per-sender outcomes regardless.
        let a1: Vec<bool> = (0..100).map(|_| a.lose(NodeId(1))).collect();
        let a2: Vec<bool> = (0..100).map(|_| a.lose(NodeId(2))).collect();
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        for _ in 0..100 {
            b2.push(b.lose(NodeId(2)));
            b1.push(b.lose(NodeId(1)));
        }
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        let j1: Vec<SimTime> = (0..10)
            .map(|_| a.extra_delay(NodeId(1), NodeId(2)))
            .collect();
        let j2: Vec<SimTime> = (0..10)
            .map(|_| b.extra_delay(NodeId(1), NodeId(9)))
            .collect();
        assert_eq!(j1, j2, "jitter stream is per-sender");
        assert!(j1.iter().all(|&d| d <= 1_000));
    }

    #[test]
    fn stats_count_only_faults_that_fired() {
        let plan = FaultPlan::new()
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], 100, 200)
            .iid_loss(0.5);
        let mut inj = plan.injector(3);
        assert_eq!(inj.stats(), FaultStats::default(), "nothing fired yet");
        assert!(!inj.cut(50, NodeId(0), NodeId(1)), "before the window");
        assert!(inj.cut(150, NodeId(0), NodeId(1)));
        assert!(inj.cut(150, NodeId(1), NodeId(0)));
        let drops = (0..1_000).filter(|_| inj.lose(NodeId(0))).count() as u64;
        let stats = inj.stats();
        assert_eq!(stats.partition_cuts, 2);
        assert_eq!(stats.loss_drops, drops);
        assert!(drops > 0);
    }

    #[test]
    #[should_panic(expected = "partition window is empty")]
    fn rejects_empty_partition_window() {
        let _ = FaultPlan::new().partition(vec![], 50, 50);
    }

    #[test]
    #[should_panic(expected = "loss probability must be in [0, 1)")]
    fn rejects_out_of_range_iid_loss() {
        let _ = FaultPlan::new().iid_loss(1.0);
    }
}
