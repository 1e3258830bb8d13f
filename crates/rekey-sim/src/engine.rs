//! An actor-style message-passing simulation on top of the scheduler.

use crate::event::{Scheduler, SimTime};

/// Identifier of a node (actor) in a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A protocol participant driven by message deliveries.
pub trait Node {
    /// The message type exchanged between nodes.
    type Msg;

    /// Called when a message addressed to this node is delivered. Outgoing
    /// messages and timers are issued through `ctx`.
    fn receive(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);
}

/// The side effects a node may produce while handling a message.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: NodeId,
    outbox: &'a mut Vec<Outgoing<M>>,
}

/// One queued side effect of a [`Node::receive`] call.
#[derive(Debug)]
enum Outgoing<M> {
    /// Deliver after the network delay between the two nodes.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// Deliver after an explicit delay (timers, processing time).
    After {
        /// Destination node (`self` for timers).
        to: NodeId,
        /// Relative delay in simulated µs.
        delay: SimTime,
        /// The message.
        msg: M,
    },
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node currently handling a message.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to`; it will be delivered after the simulation's
    /// network delay between this node and `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Outgoing::Send { to, msg });
    }

    /// Schedules `msg` for `to` after an explicit `delay`, bypassing the
    /// network delay function (use `to = self_id()` for local timers).
    pub fn send_after(&mut self, to: NodeId, delay: SimTime, msg: M) {
        self.outbox.push(Outgoing::After { to, delay, msg });
    }
}

#[derive(Debug)]
struct Delivery<M> {
    from: NodeId,
    to: NodeId,
    msg: M,
}

/// Per-sender egress serialisation hook: `(sender, msg) -> transmission
/// time` (see [`Simulation::with_egress`]).
type EgressFn<M> = Box<dyn FnMut(NodeId, &M) -> SimTime>;

/// A deterministic message-passing simulation over a set of nodes.
///
/// Network delays come from the `delay` function (typically backed by a
/// `rekey_net::Network`). The simulation counts delivered messages, which
/// the protocols use for communication-cost accounting (e.g. the paper's
/// `O(P · D · N^{1/D})` join cost analysis, §3.1.4).
pub struct Simulation<N: Node, F> {
    nodes: Vec<N>,
    scheduler: Scheduler<Delivery<N::Msg>>,
    delay: F,
    outbox: Vec<Outgoing<N::Msg>>,
    delivered: u64,
    egress: Option<EgressFn<N::Msg>>,
    busy_until: Vec<SimTime>,
}

impl<N: Node, F> std::fmt::Debug for Simulation<N, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.nodes.len())
            .field("now", &self.scheduler.now())
            .field("pending", &self.scheduler.pending())
            .field("delivered", &self.delivered)
            .finish()
    }
}

impl<N, F> Simulation<N, F>
where
    N: Node,
    F: FnMut(NodeId, NodeId) -> SimTime,
{
    /// Creates a simulation over `nodes` with the given network delay
    /// function.
    pub fn new(nodes: Vec<N>, delay: F) -> Simulation<N, F> {
        let busy_until = vec![0; nodes.len()];
        Simulation {
            nodes,
            scheduler: Scheduler::new(),
            delay,
            outbox: Vec::new(),
            delivered: 0,
            egress: None,
            busy_until,
        }
    }

    /// Installs an egress-serialisation model: `cost(from, msg)` is the
    /// time the sender's access link needs to put `msg` on the wire.
    /// Messages from one node serialise — each departs when the link frees
    /// up — so a burst of large messages (an unsplit rekey message, §1)
    /// delays everything queued behind it at that node. Timers
    /// (`send_after`) are unaffected. Returns `self` for chaining.
    pub fn with_egress(mut self, cost: impl FnMut(NodeId, &N::Msg) -> SimTime + 'static) -> Self {
        self.egress = Some(Box::new(cost));
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Total number of messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Injects an external message for `to` (appearing to come from `from`)
    /// at absolute time `at`.
    pub fn inject_at(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: N::Msg) {
        self.scheduler.schedule_at(at, Delivery { from, to, msg });
    }

    fn flush_outbox(&mut self, from: NodeId) {
        let now = self.scheduler.now();
        for out in self.outbox.drain(..) {
            match out {
                Outgoing::Send { to, msg } => {
                    let d = (self.delay)(from, to);
                    match self.egress.as_mut() {
                        None => self.scheduler.schedule_in(d, Delivery { from, to, msg }),
                        Some(cost) => {
                            let depart = now.max(self.busy_until[from.0]) + cost(from, &msg);
                            self.busy_until[from.0] = depart;
                            self.scheduler
                                .schedule_at(depart + d, Delivery { from, to, msg });
                        }
                    }
                }
                Outgoing::After { to, delay, msg } => {
                    self.scheduler
                        .schedule_in(delay, Delivery { from, to, msg });
                }
            }
        }
    }

    /// Delivers a single event, if any. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some((now, delivery)) = self.scheduler.pop() else {
            return false;
        };
        let Delivery { from, to, msg } = delivery;
        debug_assert!(to.0 < self.nodes.len(), "delivery to unknown node");
        self.delivered += 1;
        let mut ctx = Ctx {
            now,
            self_id: to,
            outbox: &mut self.outbox,
        };
        self.nodes[to.0].receive(&mut ctx, from, msg);
        self.flush_outbox(to);
        true
    }

    /// Runs until no events remain; returns the final simulated time.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.scheduler.now()
    }

    /// Runs until the clock would pass `deadline` or the queue drains.
    /// Events at exactly `deadline` are processed; the clock never
    /// advances beyond `deadline`, so external injections at the deadline
    /// instant (churn-trace joins, kills) remain valid afterwards.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while matches!(self.scheduler.next_time(), Some(at) if at <= deadline) {
            self.step();
        }
        self.scheduler.now()
    }

    /// Consumes the simulation, returning the nodes.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that counts pings and replies with pongs up to a limit.
    struct PingPong {
        received: Vec<(NodeId, u32, SimTime)>,
        replies_left: u32,
    }

    impl Node for PingPong {
        type Msg = u32;
        fn receive(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.received.push((from, msg, ctx.now()));
            if self.replies_left > 0 {
                self.replies_left -= 1;
                ctx.send(from, msg + 1);
            }
        }
    }

    fn sim(replies: [u32; 2]) -> Simulation<PingPong, impl FnMut(NodeId, NodeId) -> SimTime> {
        let nodes = replies
            .iter()
            .map(|&r| PingPong {
                received: Vec::new(),
                replies_left: r,
            })
            .collect();
        Simulation::new(nodes, |_, _| 10)
    }

    #[test]
    fn messages_bounce_with_delays() {
        let mut s = sim([2, 2]);
        s.inject_at(0, NodeId(0), NodeId(1), 0);
        let end = s.run_until_idle();
        // 0 -> 1 at t=0 (delivered t=0), then 4 bounces of 10us each.
        assert_eq!(end, 40);
        assert_eq!(s.delivered(), 5);
        let n1 = s.node(NodeId(1));
        assert_eq!(n1.received.len(), 3);
        assert_eq!(n1.received[0], (NodeId(0), 0, 0));
        assert_eq!(n1.received[1], (NodeId(0), 2, 20));
    }

    #[test]
    fn send_after_overrides_network_delay() {
        struct Timer {
            fired_at: Option<SimTime>,
        }
        impl Node for Timer {
            type Msg = ();
            fn receive(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
                if self.fired_at.is_none() {
                    self.fired_at = Some(ctx.now());
                    if ctx.now() == 0 {
                        ctx.send_after(ctx.self_id(), 500, ());
                        self.fired_at = None;
                    }
                }
            }
        }
        let mut s = Simulation::new(vec![Timer { fired_at: None }], |_, _| 1);
        s.inject_at(0, NodeId(0), NodeId(0), ());
        s.run_until_idle();
        assert_eq!(s.node(NodeId(0)).fired_at, Some(500));
    }

    #[test]
    fn egress_model_serialises_sends_per_node() {
        struct Fan {
            arrivals: Vec<SimTime>,
        }
        impl Node for Fan {
            type Msg = u64; // message "size"
            fn receive(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
                if msg > 0 {
                    // Node 0 fans three equally sized copies out at once.
                    ctx.send(NodeId(1), 0);
                    ctx.send(NodeId(1), 0);
                    ctx.send(NodeId(1), 0);
                } else {
                    self.arrivals.push(ctx.now());
                }
            }
        }
        let nodes = vec![Fan { arrivals: vec![] }, Fan { arrivals: vec![] }];
        let mut s = Simulation::new(nodes, |_, _| 100).with_egress(|_, _| 10);
        s.inject_at(0, NodeId(0), NodeId(0), 7);
        s.run_until_idle();
        // Three copies serialise at 10 each, then travel 100:
        assert_eq!(s.node(NodeId(1)).arrivals, vec![110, 120, 130]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut s = sim([100, 100]);
        s.inject_at(0, NodeId(0), NodeId(1), 0);
        s.run_until(25);
        assert_eq!(s.now(), 20, "clock holds at the last event <= deadline");
        let before = s.delivered();
        assert_eq!(before, 3); // t=0, 10, 20
                               // Injecting at the deadline instant is still valid.
        s.inject_at(25, NodeId(0), NodeId(1), 0);
        s.run_until_idle();
        assert!(s.delivered() > before);
    }
}
