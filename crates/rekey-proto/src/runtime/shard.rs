//! The simulated executor: the one place that orders simulated events.
//!
//! The protocol state machines (`RtServer`, `RtMember`) are sans-I/O;
//! this module owns everything about *when* they run. Events live in
//! **lanes** — one for the coordinator, which holds every key-server
//! replica on a single [`Scheduler`], and one per **shard**, which holds a
//! subset of the members — and the lanes drain **windows** of simulated
//! time: the coordinator on the caller's thread, then the shards — the
//! first due one on the caller's thread too, each other one on a scoped
//! worker that holds it from its first due window to the end of the call.
//! Every lane drains through one function, `Lane::drain`: it counts each
//! event (dead letter, outage suppression or delivery), hands a delivered
//! one to its node, and routes the node's effects — into the lane's own
//! queue when the receiver runs in it, else across to the receiver's lane.
//!
//! # The window invariant
//!
//! Per window the executor picks `t0` = the earliest pending event
//! anywhere and drains every event in `[t0, t0 + W)`, where the window
//! `W` must satisfy
//!
//! > `W ≤ min one-way delay between any two distinct hosts`.
//!
//! Every member→member and member→server message crosses distinct hosts,
//! so anything *sent* inside the window *arrives* at or after its end —
//! cross-lane traffic can therefore be exchanged once per window, at a
//! barrier, instead of per event. Within a window only a node's own
//! timers (always self-directed in this protocol) and replica↔replica
//! messages can land; both stay inside one lane by construction (the
//! replicas share the coordinator's queue). A `debug_assert` on every
//! cross-lane send enforces the invariant dynamically, so an undersized
//! delay model fails loudly in debug runs.
//!
//! [`ShardedGroupRuntime::new`] builds the degenerate layout — one shard,
//! `W` = 1 µs. Every delay is clamped to at least 1 µs, so the invariant
//! holds on any [`Network`] without inspecting it, and the executor is a
//! plain sequential event loop. [`ShardedGroupRuntime::bootstrapped`]
//! takes the shard count and the window from the caller, who knows the
//! substrate (e.g. `GridNetwork::min_one_way`).
//!
//! # Determinism
//!
//! Identically seeded runs produce byte-identical [`MetricsSnapshot`]
//! JSON even though shards run on real threads:
//!
//! * every lane owns its randomness: a private stream for the
//!   [`RuntimeConfigBuilder::loss`](super::RuntimeConfigBuilder::loss) draws (domain-separated by lane), and its own
//!   [`FaultInjector`] compiled from the session's [`FaultPlan`]. The
//!   injector's loss and jitter streams are keyed by *sender* node and a
//!   node sends from exactly one lane, while partitions and outages are
//!   pure functions of `(plan, now)` — so per-lane injectors draw what one
//!   shared injector would, whatever the shard count. All fates are
//!   decided at **send** time in the sender's lane, or at delivery from
//!   `(plan, now)` alone — never from thread timing;
//! * every lane records its nodes' metrics into the sinks of its own
//!   outbox: histogram inserts commute, and the per-lane span rings are
//!   merged by end time, ties by start, name and detail, at snapshot
//!   time;
//! * per window the order is fixed: the coordinator drains the replicas,
//!   then the shards drain in parallel (disjoint `&mut`), then outboxes
//!   merge in shard-index order. A worker's shard gets its crossings in
//!   that order at its next window, so every scheduler sees the same
//!   `schedule_at` sequence whichever thread holds it. Workers are joined
//!   by handle at the end of the call, which keeps a run's resident size
//!   from depending on thread timing (DESIGN.md §4c).
//!
//! # What `bootstrapped` leaves off
//!
//! Two costs that are O(N) per period stay off for a dealt group, decided
//! by how the session was built rather than by an option:
//!
//! * **Heartbeats.** Dealt members are not heartbeated (they still
//!   *answer* pings, and a member that joins later through
//!   [`ShardedGroupRuntime::run_trace`] probes as usual): per-neighbor
//!   probing is O(N·K·D) events per period. The tests stand in a
//!   concluded detection with `ShardedGroupRuntime::fail_at`, and a
//!   wrongful one of a live member with `accuse_at`; such a member learns
//!   of its departure from the `NotMember` that answers its next NACK.
//! * **Checkpoints.** A checkpoint copies the roster and key tree and
//!   bumps one count per shared table — still O(N) — so a single replica
//!   that no [`FaultPlan`] outage can touch takes none. Replicated
//!   sessions, and those whose plan takes a replica down, checkpoint every
//!   interval as usual.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

use rand::Rng;
use rekey_net::{HostId, Micros, Network};
use rekey_sim::{node_rng, FaultInjector, FaultPlan, NodeId, Scheduler, SimRng, SimTime};
use rekey_table::{ConsistencyViolation, NeighborTable};

use crate::{Group, GroupConfig, GroupError, GroupServer, UserAgent};

use super::core::{
    acting_primary, boot_timers, Effect, Event, Outbox, RtLocal, RtMember, RtServer, SERVER,
};
use super::{
    check_member_tables, ChurnEvent, ChurnOp, ExecutorCounters, MemberQuestion, MetricsSnapshot,
    NotConverged, RtMsg, RuntimeConfig, ServerStats,
};

/// Domain separator of the per-lane loss RNG streams (lanes are further
/// separated by node: the coordinator draws as [`SERVER`], shard `i` as
/// node `i + 1`).
const LOSS_SEED: u64 = 0x4C4F_5353; // "LOSS"

/// Domain separator for the fault injectors' seed, so fault randomness is
/// decoupled from the loss stream and the heartbeat stagger.
const CHAOS_SEED: u64 = 0x43_48_41_4F_53; // "CHAOS"

/// `finish` rounds before it declares the session diverged.
const MAX_FLUSH_ROUNDS: u32 = 64;

/// One queued delivery: a network message on its way to `to`, or one of
/// `to`'s own timers or driver commands.
struct Envelope {
    to: NodeId,
    event: Event,
}

impl Envelope {
    fn local(node: NodeId, local: RtLocal) -> Envelope {
        Envelope {
            to: node,
            event: Event::Local(local),
        }
    }
}

/// A message leaving its shard during a window; `at` is the (already
/// computed) arrival time, which the invariant guarantees lies at or
/// beyond the window's end.
struct Crossing {
    at: SimTime,
    envelope: Envelope,
}

/// One event queue with the randomness, the outbox and the counters of
/// the nodes it runs: the coordinator's (the replicas) or a shard's (its
/// members).
struct Lane {
    sched: Scheduler<Envelope>,
    /// [`RuntimeConfigBuilder::loss`](super::RuntimeConfigBuilder::loss) draws for `Forward` copies sent from here.
    rng: SimRng,
    /// This lane's compilation of the session's fault plan, if any.
    faults: Option<FaultInjector>,
    /// The lane's context and sinks; one delivery's effects pass through
    /// it.
    out: Outbox,
    delivered: u64,
    dropped: u64,
    dead_letters: u64,
    suppressed: u64,
}

impl Lane {
    fn new(rng: SimRng, out: Outbox) -> Lane {
        Lane {
            sched: Scheduler::new(),
            rng,
            faults: None,
            out,
            delivered: 0,
            dropped: 0,
            dead_letters: 0,
            suppressed: 0,
        }
    }

    /// The send-time fate of one network message: `None` when it is lost
    /// (counted), otherwise the extra delay jitter adds to its trip.
    /// Partitions cut every message; the loss processes thin `Forward`
    /// copies only (the bulk payload on a UDP-like path).
    fn admit(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: &RtMsg) -> Option<SimTime> {
        let loss = self.out.config().loss();
        let forward = matches!(msg, RtMsg::Forward { .. });
        let Some(faults) = self.faults.as_mut() else {
            if loss > 0.0 && forward && self.rng.gen_bool(loss) {
                self.dropped += 1;
                return None;
            }
            return Some(0);
        };
        // `|` (not `||`): both loss streams must advance on every copy for
        // the draws to stay aligned across runs.
        if faults.cut(now, from, to)
            || (forward && ((loss > 0.0 && self.rng.gen_bool(loss)) | faults.lose(from)))
        {
            self.dropped += 1;
            return None;
        }
        Some(faults.extra_delay(from, to))
    }

    /// `true` (and counted) when an outage window swallows a delivery.
    fn suppresses(&mut self, now: SimTime, to: NodeId) -> bool {
        let down = self
            .faults
            .as_ref()
            .is_some_and(|faults| faults.is_down(now, to));
        self.suppressed += u64::from(down);
        down
    }
}

/// The nodes one lane runs: the coordinator's replicas, or a shard's
/// members. [`Lane::drain`] hands each of the lane's events to one of them.
trait Nodes {
    /// Where `node` sits among these nodes, or `None` when it has crashed:
    /// what reaches a crashed node is a dead letter.
    fn slot(&self, layout: &Layout<'_>, node: NodeId) -> Option<usize>;

    /// Hands `event` to the node at `slot`; its effects land in `out`.
    fn handle<NET: Network>(&mut self, slot: usize, out: &mut Outbox, net: &NET, event: Event);
}

/// The replicas: node `r` is `self[r]`, and a replica never crashes (an
/// outage silences it instead).
impl Nodes for [RtServer] {
    fn slot(&self, _: &Layout<'_>, node: NodeId) -> Option<usize> {
        Some(node.0)
    }

    fn handle<NET: Network>(&mut self, slot: usize, out: &mut Outbox, net: &NET, event: Event) {
        self[slot].handle(out, net, event);
    }
}

/// A shard's members, in the order the shard took them on.
struct Members {
    /// The index of the shard they run in.
    shard: usize,
    list: Vec<RtMember>,
    /// Cleared by [`ChurnOp::Crash`]; parallel to `list`.
    alive: Vec<bool>,
}

impl Members {
    /// Takes `member` on, alive, and returns its placement.
    fn push(&mut self, member: RtMember) -> (u32, u32) {
        self.list.push(member);
        self.alive.push(true);
        (self.shard as u32, (self.list.len() - 1) as u32)
    }
}

impl Nodes for Members {
    fn slot(&self, layout: &Layout<'_>, node: NodeId) -> Option<usize> {
        let (shard, idx) = layout.placement[layout.config.member_host(node).0];
        debug_assert_eq!(
            shard as usize, self.shard,
            "envelope routed to the wrong shard"
        );
        let idx = idx as usize;
        self.alive[idx].then_some(idx)
    }

    fn handle<NET: Network>(&mut self, slot: usize, out: &mut Outbox, _: &NET, event: Event) {
        self.list[slot].handle(out, event);
    }
}

/// One shard: a subset of the members and their lane.
struct Shard {
    lane: Lane,
    members: Members,
}

/// Who runs where: node ids are `0..replicas` for the key-server replicas
/// and [`RuntimeConfig::member_node`] for member `handle`, which lives on
/// `HostId(handle)`; the replicas share the network's last host.
struct Layout<'a> {
    config: RuntimeConfig,
    server_host: HostId,
    /// Member handle → (shard index, index within the shard).
    placement: &'a [(u32, u32)],
    shards: usize,
}

impl Layout<'_> {
    /// The host `node` runs on, and the lane that runs it: `None` for the
    /// coordinator's, which runs every replica, else a member's shard.
    fn place(&self, node: NodeId) -> (HostId, Option<usize>) {
        if node.0 < self.config.replicas() {
            return (self.server_host, None);
        }
        let host = self.config.member_host(node);
        (host, Some(shard_of(self.placement, self.shards, host.0)))
    }
}

/// The shard member `handle` runs (or, for a handle a fault plan names
/// before its join, will run) in.
fn shard_of(placement: &[(u32, u32)], shards: usize, handle: usize) -> usize {
    match placement.get(handle) {
        Some(&(shard_index, _)) => shard_index as usize,
        None => handle % shards,
    }
}

impl Lane {
    /// The lane drain, which every lane runs: the coordinator over the
    /// replicas, each shard over its members. Pops every event strictly
    /// before `t1` and counts it — a dead letter for a crashed member, else
    /// an outage suppression, else a delivery — then hands a delivered one
    /// to its node and routes the node's effects. A timer stays in the
    /// lane, and so does a message whose receiver the lane runs; every
    /// other message is a crossing, handed to `cross` as it is sent, which
    /// the invariant puts at or beyond `t1`. Touches nothing but the lane,
    /// its nodes, the (read-only) network, the layout and `cross`, so it
    /// runs on any thread.
    fn drain<NET: Network>(
        &mut self,
        nodes: &mut (impl Nodes + ?Sized),
        net: &NET,
        layout: &Layout<'_>,
        t1: SimTime,
        mut cross: impl FnMut(Crossing),
    ) {
        while self.sched.next_time().is_some_and(|t| t < t1) {
            let (now, Envelope { to: me, event }) = self.sched.pop().expect("peeked above");
            let Some(slot) = nodes.slot(layout, me) else {
                self.dead_letters += 1;
                continue;
            };
            if self.suppresses(now, me) {
                continue;
            }
            self.delivered += 1;
            let out = &mut self.out;
            (out.now, out.me) = (now, me);
            nodes.handle(slot, out, net, event);
            let mut effects = std::mem::take(&mut out.effects);
            let (my_host, my_lane) = layout.place(me);
            for effect in effects.drain(..) {
                match effect {
                    Effect::Send { to, msg } => {
                        let Some(extra) = self.admit(now, me, to, &msg) else {
                            continue;
                        };
                        let (to_host, to_lane) = layout.place(to);
                        let at = now + net.one_way(my_host, to_host).max(1) + extra;
                        let event = Event::Net { from: me, msg };
                        let envelope = Envelope { to, event };
                        if to_lane == my_lane {
                            self.sched.schedule_at(at, envelope);
                        } else {
                            debug_assert!(
                                at >= t1,
                                "cross-lane send inside the window: the window exceeds \
                                 the minimum one-way delay"
                            );
                            cross(Crossing { at, envelope });
                        }
                    }
                    Effect::Timer { delay, event } => self
                        .sched
                        .schedule_at(now + delay.max(1), Envelope::local(me, event)),
                }
            }
            self.out.effects = effects; // keeps its capacity
        }
    }
}

impl Shard {
    /// The next event time and the queue depth.
    fn queue(&self) -> (Option<SimTime>, usize) {
        (self.lane.sched.next_time(), self.lane.sched.pending())
    }
}

/// One window for a worker: its end, the shard's inbound crossings, and
/// an empty buffer for the shard's sends.
type Window = (SimTime, Vec<Crossing>, Vec<Crossing>);

/// One window's sends of a shard, and its queue after the window.
type Drained = (Vec<Crossing>, (Option<SimTime>, usize));

/// A thread that holds one shard for a whole `run` call: per window it
/// takes a [`Window`] and answers with [`Drained`].
struct Worker<'scope> {
    windows: SyncSender<Window>,
    drained: Receiver<Drained>,
    thread: ScopedJoinHandle<'scope, ()>,
    /// Crossings bound for the shard since its last window, in scheduling
    /// order: the last merge's, then the replicas' sends.
    inbound: Vec<Crossing>,
    /// The shard's queue after its last window.
    queue: (Option<SimTime>, usize),
}

impl Worker<'_> {
    /// Joins the thread, re-raising its panic if it had one.
    fn join(self) {
        drop(self.windows);
        if let Err(panic) = self.thread.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// The coordinator's side of one shard during a `run` call: the shard
/// itself while the caller's thread holds it, else the worker that does.
struct Port<'s, 'scope> {
    here: Option<&'s mut Shard>,
    worker: Option<Worker<'scope>>,
    /// The shard's sends of the current window, until they are merged.
    outbox: Vec<Crossing>,
    /// The shard has events in the current window.
    due: bool,
}

impl Port<'_, '_> {
    /// Hands `crossing` to the shard: into its queue at once if it is
    /// here, else to its worker's next window.
    fn push(&mut self, crossing: Crossing) {
        match (&mut self.here, &mut self.worker) {
            (Some(shard), _) => shard.lane.sched.schedule_at(crossing.at, crossing.envelope),
            (None, Some(worker)) => worker.inbound.push(crossing),
            (None, None) => unreachable!("a shard is here or with its worker"),
        }
    }

    /// The shard's next event time and queue depth, counting the inbound
    /// crossings that wait for its worker.
    fn queue(&self) -> (Option<SimTime>, usize) {
        match (&self.here, &self.worker) {
            (Some(shard), _) => shard.queue(),
            (None, Some(Worker { inbound, queue, .. })) => (
                queue
                    .0
                    .into_iter()
                    .chain(inbound.iter().map(|c| c.at))
                    .min(),
                queue.1 + inbound.len(),
            ),
            (None, None) => unreachable!("a shard is here or with its worker"),
        }
    }
}

/// Every host's access-link RTT `a(h)` — §3.1.2's `h(u, gw_u)`, which
/// its pongs carry — solved from the substrate's two RTTs. For any two
/// hosts `d(u, w) = rtt(u, w) − gateway_rtt(u, w) = a(u) + a(w)`, so the
/// server's own `a(s) = (d(s, x) + d(s, y) − d(x, y)) / 2` for two other
/// hosts `x`, `y` (taken as 0 with fewer than three hosts), and then
/// `a(h) = d(h, s) − a(s)`.
fn access_rtts(net: &impl Network, server: HostId) -> Vec<Micros> {
    let d = |u: HostId, w: HostId| net.rtt(u, w).saturating_sub(net.gateway_rtt(u, w));
    let mut others = (0..net.host_count()).map(HostId).filter(|&h| h != server);
    let server_access = match (others.next(), others.next()) {
        (Some(x), Some(y)) => (d(server, x) + d(server, y)).saturating_sub(d(x, y)) / 2,
        _ => 0,
    };
    (0..net.host_count())
        .map(HostId)
        .map(|h| {
            if h == server {
                server_access
            } else {
                d(h, server).saturating_sub(server_access)
            }
        })
        .collect()
}

/// The simulated group runtime: the sans-I/O protocol state machines
/// under the windowed executor (see the module docs).
///
/// Build it empty with [`ShardedGroupRuntime::new`] and play a
/// [`ChurnEvent`] trace into it, or fully populated with
/// [`ShardedGroupRuntime::bootstrapped`] and churn it with
/// [`ShardedGroupRuntime::leave_at`]; optionally wire in a [`FaultPlan`]
/// with [`ShardedGroupRuntime::with_faults`]; end every session with
/// [`ShardedGroupRuntime::finish`], then read
/// [`ShardedGroupRuntime::snapshot`].
///
/// Member handles are join order: the `k`-th member (dealt or joined) has
/// handle `k`, runs on `HostId(k)`, and is node
/// [`chaos::member_node_with_replicas`](crate::chaos::member_node_with_replicas)`(k, replicas)`;
/// the replicas run on the substrate's last host.
pub struct ShardedGroupRuntime<NET: Network + Sync> {
    net: NET,
    /// The key-server replicas (node `r` is `servers[r]`; replica 0 is
    /// the initial primary), all on the coordinator's lane.
    servers: Vec<RtServer>,
    coord: Lane,
    shards: Vec<Shard>,
    /// Member handle → (shard index, index within the shard).
    placement: Vec<(u32, u32)>,
    /// One window's messages to the replicas; kept for its capacity.
    to_replicas: Vec<Crossing>,
    window: Micros,
    server_host: HostId,
    /// Every event strictly before `now` has been processed.
    now: SimTime,
    peak_queue: usize,
}

impl<NET: Network + Sync> ShardedGroupRuntime<NET> {
    /// Builds an empty group over `net` with the server on the last host;
    /// members arrive through [`ShardedGroupRuntime::run_trace`].
    ///
    /// `config` is valid by construction ([`RuntimeConfig::builder`] holds
    /// the validation), so this never panics on configuration. Debug
    /// builds warn when `nack_grace` does not cover a worst-case server
    /// round trip, which makes spurious NACKs likely.
    pub fn new(group: GroupConfig, config: RuntimeConfig, net: NET) -> ShardedGroupRuntime<NET> {
        let server_host = HostId(net.host_count() - 1);
        #[cfg(debug_assertions)]
        {
            let worst_round_trip = (0..net.host_count())
                .map(HostId)
                .filter(|&h| h != server_host)
                .map(|h| net.one_way(server_host, h) + net.one_way(h, server_host))
                .max()
                .unwrap_or(0);
            if config.nack_grace < worst_round_trip {
                eprintln!(
                    "warning: nack_grace ({} µs) is below the worst-case server \
                     round trip ({} µs); expect spurious NACKs",
                    config.nack_grace, worst_round_trip
                );
            }
        }
        // Every replica builds the *same* seeded state machine:
        // deterministic replication replays ops, so identical seeds keep
        // the RNG streams aligned.
        let fsms = (0..config.replicas())
            .map(|_| group.clone().build(server_host))
            .collect();
        ShardedGroupRuntime::assemble(config, net, fsms, true, 1, 1)
    }

    /// Builds a fully populated runtime: `members` members on hosts
    /// `0..members` (the server takes the network's last host), dealt
    /// into IDs and K-consistent tables by [`GroupConfig::bootstrap`],
    /// every agent welcomed at interval 1, and the first rekey interval
    /// armed. `shards` is clamped to the ID base (members shard by their
    /// level-1 digit); `window` must respect the window invariant
    /// (`≤` the minimum one-way delay between distinct hosts — e.g.
    /// `GridNetwork::min_one_way`).
    pub fn bootstrapped(
        group: GroupConfig,
        config: RuntimeConfig,
        net: NET,
        members: usize,
        shards: usize,
        window: Micros,
    ) -> Result<ShardedGroupRuntime<NET>, GroupError> {
        assert!(window > 0, "the drain window must be positive");
        assert!(shards > 0, "need at least one shard");
        assert!(
            members < net.host_count(),
            "need a host per member plus one for the server"
        );
        let server_host = HostId(net.host_count() - 1);
        let hosts: Vec<HostId> = (0..members).map(HostId).collect();
        let (server_fsm, welcomes) = group.bootstrap(server_host, &hosts, &net)?;
        let shard_count = shards.min(server_fsm.group().spec().base() as usize);
        let replicas = config.replicas();
        // Followers start from a copy of the dealt state — what replaying
        // the primary's bootstrap would have given them.
        let fsms = vec![server_fsm; replicas];
        let mut rt =
            ShardedGroupRuntime::assemble(config, net, fsms, replicas > 1, shard_count, window);
        rt.servers[0].stats.welcomes = members as u64;

        // Bootstrap deals IDs in host order, so handle i is member i.
        for (handle, welcome) in welcomes.into_iter().enumerate() {
            let group = rt.servers[0].server.group();
            let shard = &mut rt.shards[(welcome.id.digit(0) as usize) % shard_count];
            let (member, (due, check)) =
                RtMember::welcomed(shard.lane.out.config(), group, handle, welcome);
            rt.placement.push(shard.members.push(member));
            let node = shard.lane.out.config().member_node(HostId(handle));
            shard
                .lane
                .sched
                .schedule_at(due, Envelope::local(node, check));
        }
        Ok(rt)
    }

    /// The part both constructors share: replicas over `fsms` on the
    /// coordinator's lane with their bring-up timers armed, and
    /// `shard_count` empty shards.
    fn assemble(
        config: RuntimeConfig,
        net: NET,
        fsms: Vec<GroupServer>,
        checkpointing: bool,
        shard_count: usize,
        window: Micros,
    ) -> ShardedGroupRuntime<NET> {
        let server_host = HostId(net.host_count() - 1);
        let access: Arc<[Micros]> = access_rtts(&net, server_host).into();
        let assign = Arc::new(fsms[0].group().assign_params().clone());
        let outbox = || Outbox::new(config, Arc::clone(&assign), Arc::clone(&access));
        let servers = fsms
            .into_iter()
            .enumerate()
            // Joiners probe with `Query`/`Ping` messages, timed by the
            // substrate's delays.
            .map(|(replica, fsm)| RtServer::new(&config, fsm, replica, checkpointing, true))
            .collect();
        let mut coord = Lane::new(node_rng(config.seed() ^ LOSS_SEED, SERVER), outbox());
        for (node, due, timer) in boot_timers(&config) {
            coord.sched.schedule_at(due, Envelope::local(node, timer));
        }
        let shards = (0..shard_count)
            .map(|index| Shard {
                // Shard streams are separated by index + 1 so none
                // collides with the coordinator's (node 0 = SERVER).
                lane: Lane::new(
                    node_rng(config.seed() ^ LOSS_SEED, NodeId(index + 1)),
                    outbox(),
                ),
                members: Members {
                    shard: index,
                    list: Vec::new(),
                    alive: Vec::new(),
                },
            })
            .collect();
        ShardedGroupRuntime {
            server_host,
            net,
            servers,
            coord,
            shards,
            placement: Vec::new(),
            to_replicas: Vec::new(),
            window,
            now: 0,
            peak_queue: 0,
        }
    }

    /// Wires a chaos [`FaultPlan`] into the session: partitions cut every
    /// message across cells, i.i.d./burst loss thins `Forward` copies (on
    /// top of the [`RuntimeConfigBuilder::loss`](super::RuntimeConfigBuilder::loss) draw, whose stream is
    /// unchanged), jitter delays and reorders network sends, and each
    /// outage window silences its node and ends with a `Restart` event at
    /// the window's close. Call before driving the session; the injectors
    /// are seeded from [`RuntimeConfigBuilder::seed`](super::RuntimeConfigBuilder::seed), so a fixed seed and plan
    /// reproduce the run bit for bit at any shard count.
    pub fn with_faults(mut self, plan: FaultPlan) -> ShardedGroupRuntime<NET> {
        let seed = self.config().seed ^ CHAOS_SEED;
        self.coord.faults = Some(plan.injector(seed));
        for shard in &mut self.shards {
            shard.lane.faults = Some(plan.injector(seed));
        }
        for outage in plan.outages() {
            let restart = Envelope::local(outage.node, RtLocal::Restart);
            if outage.node.0 < self.servers.len() {
                // A replica that can go down needs something to come
                // back from.
                for server in &mut self.servers {
                    server.checkpointing = true;
                }
                self.coord.sched.schedule_at(outage.until, restart);
            } else {
                self.lane_of(outage.node)
                    .sched
                    .schedule_at(outage.until, restart);
            }
        }
        self
    }

    /// Plays a churn trace: advances the clock to each event's time and
    /// applies it. Events are processed in time order (stable for ties);
    /// an event at time `t` takes effect before the deliveries of instant
    /// `t`. Returns the handles assigned to the trace's joins.
    ///
    /// # Panics
    ///
    /// Panics if an event refers to a handle that has not joined or the
    /// substrate runs out of hosts.
    pub fn run_trace(&mut self, events: &[ChurnEvent]) -> Vec<usize> {
        let mut ordered: Vec<&ChurnEvent> = events.iter().collect();
        ordered.sort_by_key(|e| e.at);
        let mut handles = Vec::new();
        for event in ordered {
            self.run_until(event.at);
            match event.op {
                ChurnOp::Join => {
                    let handle = self.placement.len();
                    assert!(
                        handle < self.server_host.0,
                        "substrate has no free host for another join"
                    );
                    // `placement` decouples handle from shard, so a
                    // joiner needs no ID yet to be placed.
                    let shard_index = handle % self.shards.len();
                    let shard = &mut self.shards[shard_index];
                    self.placement.push(shard.members.push(RtMember::new()));
                    handles.push(handle);
                    self.inject(event.at, handle, RtLocal::Join);
                }
                ChurnOp::Leave(member) => self.inject(event.at, member, RtLocal::Leave),
                ChurnOp::Crash(member) => {
                    let (shard_index, idx) = self.placed(member);
                    self.shards[shard_index].members.alive[idx] = false;
                }
            }
        }
        handles
    }

    /// Schedules member `handle`'s voluntary leave at `at` (clamped to the
    /// present).
    ///
    /// # Panics
    ///
    /// Panics on a handle that never joined.
    pub fn leave_at(&mut self, at: SimTime, handle: usize) {
        self.inject(at, handle, RtLocal::Leave);
    }

    /// Crashes member `handle` now, like [`ChurnOp::Crash`], and
    /// schedules its concluded detection at `at` ([`Self::accuse_at`]).
    /// For dealt groups, whose members are not heartbeated (see the module
    /// docs).
    #[cfg(test)]
    pub(crate) fn fail_at(&mut self, at: SimTime, handle: usize, accuser: usize) {
        let (shard_index, idx) = self.placed(handle);
        self.shards[shard_index].members.alive[idx] = false;
        self.accuse_at(at, handle, accuser);
    }

    /// Neighbor `accuser`'s `FailureNotice` of member `handle` reaches the
    /// replica that is acting primary now at `at`, which departs the member
    /// at once. The next interval rekeys it out, and only the owners whose
    /// tables listed it receive a `Table` push. The member itself runs on.
    #[cfg(test)]
    pub(crate) fn accuse_at(&mut self, at: SimTime, handle: usize, accuser: usize) {
        let failed = self
            .member(handle)
            .member
            .as_ref()
            .expect("only an admitted member can fail")
            .id;
        let from = self.member_node(accuser);
        let to = NodeId(self.acting_primary());
        let msg = RtMsg::FailureNotice { failed };
        let event = Event::Net { from, msg };
        self.coord
            .sched
            .schedule_at(at.max(self.now), Envelope { to, event });
    }

    /// Schedules the driver command `local` at member `handle`.
    fn inject(&mut self, at: SimTime, handle: usize, local: RtLocal) {
        let node = self.member_node(handle);
        let at = at.max(self.now);
        self.lane_of(node)
            .sched
            .schedule_at(at, Envelope::local(node, local));
    }

    fn config(&self) -> &RuntimeConfig {
        self.coord.out.config()
    }

    fn member_node(&self, handle: usize) -> NodeId {
        self.placed(handle);
        self.config().member_node(HostId(handle))
    }

    fn placed(&self, handle: usize) -> (usize, usize) {
        assert!(
            handle < self.placement.len(),
            "member handle {handle} never joined"
        );
        let (shard_index, idx) = self.placement[handle];
        (shard_index as usize, idx as usize)
    }

    fn member(&self, handle: usize) -> &RtMember {
        let (shard_index, idx) = self.placed(handle);
        &self.shards[shard_index].members.list[idx]
    }

    /// Every member in handle order.
    fn members(&self) -> impl Iterator<Item = &RtMember> {
        self.placement.iter().map(|&(shard_index, idx)| {
            &self.shards[shard_index as usize].members.list[idx as usize]
        })
    }

    /// The lane member node `node` runs (or, for a handle a fault plan
    /// names before its join, will run) in.
    fn lane_of(&mut self, node: NodeId) -> &mut Lane {
        let handle = self.config().member_host(node).0;
        let shard_index = shard_of(&self.placement, self.shards.len(), handle);
        &mut self.shards[shard_index].lane
    }

    fn lanes(&self) -> impl Iterator<Item = &Lane> {
        std::iter::once(&self.coord).chain(self.shards.iter().map(|s| &s.lane))
    }

    fn acting_primary(&self) -> usize {
        acting_primary(self.servers.iter().enumerate())
    }

    fn primary(&self) -> &RtServer {
        &self.servers[self.acting_primary()]
    }

    /// Runs windows until no event remains before `cap`. Per window it
    /// picks `t0` (earliest event anywhere), drains everything in
    /// `[t0, min(t0 + W, cap))` —
    /// replicas first on the coordinator, then the due shards in parallel
    /// — and merges the shards' outboxes in shard-index order. The first
    /// due shard stays on the caller's thread; each other one gets a
    /// worker the first time it is due. Returns the windows run and the
    /// threads started.
    fn run(&mut self, cap: SimTime) -> (usize, usize) {
        let ShardedGroupRuntime {
            net,
            servers,
            coord,
            shards,
            placement,
            to_replicas,
            window,
            server_host,
            now,
            peak_queue,
        } = self;
        let (net, window) = (&*net, *window);
        let layout = &Layout {
            config: *coord.out.config(),
            server_host: *server_host,
            placement,
            shards: shards.len(),
        };
        let (mut windows_run, mut threads) = (0, 0);
        let leftovers: Vec<(usize, Vec<Crossing>)> = std::thread::scope(|scope| {
            let mut ports: Vec<Port<'_, '_>> = (shards.iter_mut())
                .map(|shard| Port {
                    here: Some(shard),
                    worker: None,
                    outbox: Vec::new(),
                    due: false,
                })
                .collect();
            let mut inline = None;
            loop {
                let next = ports.iter().filter_map(|port| port.queue().0);
                let Some(t0) = next.chain(coord.sched.next_time()).min() else {
                    break;
                };
                if t0 >= cap {
                    break;
                }
                let t1 = cap.min(t0.saturating_add(window));
                windows_run += 1;
                let depth: usize = ports.iter().map(|port| port.queue().1).sum();
                *peak_queue = (*peak_queue).max(coord.sched.pending() + depth);

                // The replicas' crossings go straight to their shards'
                // ports, in emission order: no shard drains before them.
                coord.drain(servers.as_mut_slice(), net, layout, t1, |crossing| {
                    let (_, shard) = layout.place(crossing.envelope.to);
                    ports[shard.expect("replica to replica stays in the lane")].push(crossing);
                });

                for (index, port) in ports.iter_mut().enumerate() {
                    port.due = port.queue().0.is_some_and(|t| t < t1);
                    if !port.due || *inline.get_or_insert(index) == index {
                        continue;
                    }
                    if let Some(shard) = port.here.take() {
                        let queue = shard.queue();
                        let (windows, to_run) = sync_channel::<Window>(1);
                        let (ran, drained) = sync_channel(1);
                        let thread = scope.spawn(move || {
                            for (t1, inbound, mut outbox) in to_run {
                                for Crossing { at, envelope } in inbound {
                                    shard.lane.sched.schedule_at(at, envelope);
                                }
                                let Shard { lane, members } = shard;
                                lane.drain(members, net, layout, t1, |c| outbox.push(c));
                                if ran.send((outbox, shard.queue())).is_err() {
                                    break;
                                }
                            }
                        });
                        threads += 1;
                        let inbound = Vec::new();
                        port.worker = Some(Worker {
                            windows,
                            drained,
                            thread,
                            inbound,
                            queue,
                        });
                    }
                    let worker = port.worker.as_mut().expect("spawned above");
                    let inbound = std::mem::take(&mut worker.inbound);
                    let outbox = std::mem::take(&mut port.outbox);
                    if worker.windows.send((t1, inbound, outbox)).is_err() {
                        // The worker panicked: re-raise its panic here.
                        port.worker.take().expect("checked above").join();
                    }
                }
                if let Some(port) = inline
                    .map(|index| &mut ports[index])
                    .filter(|port| port.due)
                {
                    let shard = port.here.as_mut().expect("the inline shard stays here");
                    let Shard { lane, members } = shard;
                    lane.drain(members, net, layout, t1, |c| port.outbox.push(c));
                }
                for port in ports.iter_mut().filter(|port| port.due) {
                    let Some(worker) = port.worker.as_mut() else {
                        continue;
                    };
                    match worker.drained.recv() {
                        Ok((outbox, queue)) => (port.outbox, worker.queue) = (outbox, queue),
                        // The worker panicked: re-raise its panic here.
                        Err(_) => port.worker.take().expect("checked above").join(),
                    }
                }

                // Merge outboxes in shard-index order: together with the
                // scheduler's FIFO tie-break this fixes the delivery order
                // of same-instant cross-lane messages independently of
                // thread timing. Every message to a replica crosses lanes,
                // whatever the layout, so those are put in (arrival,
                // sender) order, which no shard count can change.
                for index in 0..ports.len() {
                    let mut outbox = std::mem::take(&mut ports[index].outbox);
                    for crossing in outbox.drain(..) {
                        match layout.place(crossing.envelope.to).1 {
                            Some(shard) => ports[shard].push(crossing),
                            None => to_replicas.push(crossing),
                        }
                    }
                    ports[index].outbox = outbox;
                }
                to_replicas.sort_by_key(|c| match c.envelope.event {
                    Event::Net { from, .. } => (c.at, from.0),
                    Event::Local(_) => unreachable!("timers never cross lanes"),
                });
                for Crossing { at, envelope } in to_replicas.drain(..) {
                    coord.sched.schedule_at(at, envelope);
                }
                *now = (*now).max(t1);
            }
            let workers = ports.into_iter().enumerate();
            (workers.filter_map(|(index, port)| Some((index, port.worker?))))
                .map(|(index, mut worker)| {
                    let inbound = std::mem::take(&mut worker.inbound);
                    worker.join();
                    (index, inbound)
                })
                .collect()
        });
        // What the last merge left for a worker's shard enters its queue
        // now, as it would have at the merge.
        for (index, inbound) in leftovers {
            for Crossing { at, envelope } in inbound {
                shards[index].lane.sched.schedule_at(at, envelope);
            }
        }
        (windows_run, threads)
    }

    /// Runs the simulation until `until`: every event strictly before
    /// `until` is processed.
    pub fn run_until(&mut self, until: SimTime) {
        self.run(until);
        self.now = self.now.max(until);
    }

    /// Advances the clock a quarter rekey period at a time until the
    /// acting primary has completed rekey interval `target` and every
    /// live member has applied it. A crashed member never applies
    /// anything again, so it is not waited for, though it stays in the
    /// roster until its neighbors detect it. Returns `false` if the
    /// target is still out of reach after 100 000 steps.
    pub fn run_to_interval(&mut self, target: u64) -> bool {
        let period = self.config().rekey_period.max(4);
        for _ in 0..100_000 {
            let lagging = Arc::new(move |m: &RtMember| !m.has_applied(target));
            if self.server().interval() >= target && self.live_where(lagging).is_empty() {
                return true;
            }
            self.run_until(self.now + period / 4);
        }
        false
    }

    /// The handles of the live (not crashed) members that answer
    /// `question`, in ascending order.
    fn live_where(&self, question: MemberQuestion) -> Vec<usize> {
        (self.placement.iter().enumerate())
            .filter(|&(_, &(shard_index, idx))| {
                let members = &self.shards[shard_index as usize].members;
                members.alive[idx as usize] && question(&members.list[idx as usize])
            })
            .map(|(handle, _)| handle)
            .collect()
    }

    /// Runs the clock to `until`, then runs the live protocol in rounds
    /// until the convergence condition of [`NotConverged`] holds: each
    /// round hands the acting primary a flush — it folds pending
    /// membership work into an interval and pushes every member its
    /// latest related set and table version, so the last interval and a
    /// lost `Table` push are discoverable even when every copy was lost —
    /// and runs the session for [`RuntimeConfig`]'s flush slice. Timers,
    /// retries, their escalation to a resync, heartbeats and replication
    /// keep running as in any other stretch of the session. Returns the
    /// final simulated time.
    ///
    /// # Panics
    ///
    /// Panics with the [`NotConverged`] of the last round if the
    /// condition still fails after 64 rounds (e.g. a fault window extends
    /// past them, leaving the server unreachable).
    pub fn finish(&mut self, until: SimTime) -> SimTime {
        self.run_until(until);
        let slice = self.config().flush_slice();
        for round in 1.. {
            let primary = NodeId(self.acting_primary());
            self.coord
                .sched
                .schedule_at(self.now, Envelope::local(primary, RtLocal::Flush));
            self.run_until(self.now + slice);
            let check = NotConverged::check(self.primary(), self.config(), |q| self.live_where(q));
            match check {
                Ok(()) => break,
                Err(open) => assert!(
                    round < MAX_FLUSH_ROUNDS,
                    "finish did not converge in {MAX_FLUSH_ROUNDS} rounds of {slice} µs: {open:?}"
                ),
            }
        }
        self.now
    }

    /// Current simulated time: every event before it has been processed.
    #[cfg(test)]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Members dealt in or spawned so far (handles are
    /// `0..member_count()`).
    pub fn member_count(&self) -> usize {
        self.placement.len()
    }

    /// The server-side facade state machine of the acting primary (and
    /// through it the oracle [`Group`] and the key tree).
    pub fn server(&self) -> &GroupServer {
        &self.primary().server
    }

    /// The authoritative membership view.
    pub fn group(&self) -> &Group {
        self.server().group()
    }

    /// The acting primary's epoch (0 until the first restart or
    /// promotion).
    pub fn server_epoch(&self) -> u64 {
        self.primary().epoch
    }

    /// Member `handle`'s key agent, once welcomed (`None` after it
    /// departed).
    pub fn agent(&self, handle: usize) -> Option<&UserAgent> {
        let &(shard_index, idx) = self.placement.get(handle)?;
        self.shards[shard_index as usize].members.list[idx as usize]
            .agent
            .as_ref()
    }

    /// Member `handle`'s local neighbor table, while active.
    pub fn member_table(&self, handle: usize) -> Option<&NeighborTable> {
        self.member(handle).table.as_deref()
    }

    /// Member `handle`'s counters.
    #[cfg(test)]
    pub(crate) fn member_stats(&self, handle: usize) -> super::MemberStats {
        self.member(handle).stats
    }

    /// How many evicted neighbors member `handle` holds on probation —
    /// the only records by which its table may differ from the server's.
    pub fn member_suspects(&self, handle: usize) -> usize {
        self.member(handle).suspects.len()
    }

    /// `false` once member `handle` has been crashed.
    #[cfg(test)]
    pub(crate) fn is_member_alive(&self, handle: usize) -> bool {
        let (shard_index, idx) = self.placed(handle);
        self.shards[shard_index].members.alive[idx]
    }

    /// Checks that the *members' local tables* (not the oracle's) are
    /// K-consistent for the oracle membership (Definition 3).
    ///
    /// # Panics
    ///
    /// Panics if an oracle member never received its overlay state (its
    /// node has no table) — that indicates a protocol bug, not a
    /// consistency violation.
    pub fn check_consistency(&self) -> Result<(), ConsistencyViolation> {
        check_member_tables(self.group(), |handle| self.member_table(handle))
    }

    /// Aggregates the session's counters, histograms, and spans.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut executor = ExecutorCounters {
            peak_queue_depth: self.peak_queue,
            ..ExecutorCounters::default()
        };
        for lane in self.lanes() {
            executor.copies_lost += lane.dropped;
            executor.dead_letters += lane.dead_letters;
            executor.suppressed += lane.suppressed;
            executor.delivered += lane.delivered;
            if let Some(faults) = &lane.faults {
                let fired = faults.stats();
                executor.partition_cuts += fired.partition_cuts;
                executor.fault_loss_drops += fired.loss_drops;
            }
        }
        MetricsSnapshot::assemble(
            self.group().len(),
            ServerStats::sum(self.servers.iter().map(|s| &s.stats)),
            self.members().map(|m| &m.stats),
            self.lanes().map(|lane| &lane.out.sinks),
            executor,
        )
    }
}

/// The scoped workers require `&mut Shard: Send`; pin that down as a
/// compile-time fact so a future `Rc` smuggled into member state fails
/// here with a readable error instead of inside `thread::scope`.
#[allow(dead_code)]
fn assert_shard_is_send() {
    fn is_send<T: Send>() {}
    is_send::<Shard>();
}

/// Nodes are values: each holds its own protocol state, and its table is an
/// immutable `Arc` that a write copies, so a clone evolves on its own and
/// moves to any thread. An `Rc` or a cell smuggled into either fails here.
#[allow(dead_code)]
fn assert_nodes_are_values() {
    fn is_value<T: Clone + Send>() {}
    is_value::<RtMember>();
    is_value::<RtServer>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{member_node_with_replicas, replica_node};
    use crate::runtime::journal::HISTORY_WINDOW;
    use rekey_id::IdSpec;
    use rekey_net::GridNetwork;
    use rekey_sim::GilbertElliott;

    const MEMBERS: usize = 48;
    const PERIOD: SimTime = 400_000;

    fn group() -> GroupConfig {
        GroupConfig::for_spec(&IdSpec::new(3, 4).unwrap())
            .k(2)
            .seed(11)
    }

    fn config(loss: f64, seed: u64, replicas: usize) -> RuntimeConfig {
        RuntimeConfig::builder()
            .rekey_period(PERIOD)
            .nack_grace(PERIOD / 4)
            // Dealt members are not heartbeated; keep the period out of
            // the run for the ones that join later, too.
            .heartbeat_period(1 << 40)
            .loss(loss)
            .retry_base(PERIOD / 8)
            .replicas(replicas)
            .seed(seed)
            .build()
    }

    /// Hosts 0 and 1 are 31 ms apart gateway to gateway and each 20 ms
    /// from host 2; access links are 1, 2 and 3 ms. With the server on
    /// host 2, every host's access RTT comes back, the server's own
    /// included; with fewer than three hosts the server's counts as 0.
    #[test]
    fn access_rtts_leave_the_servers_access_link_out() {
        const MS: Micros = 1_000;
        let g = vec![
            vec![0, 31 * MS, 20 * MS],
            vec![31 * MS, 0, 20 * MS],
            vec![20 * MS, 20 * MS, 0],
        ];
        let net = rekey_net::MatrixNetwork::from_matrix(g, vec![MS, 2 * MS, 3 * MS]);
        assert_eq!(access_rtts(&net, HostId(2)), vec![MS, 2 * MS, 3 * MS]);
        let g = vec![vec![0, 5 * MS], vec![5 * MS, 0]];
        let pair = rekey_net::MatrixNetwork::from_matrix(g, vec![MS, MS]);
        assert_eq!(access_rtts(&pair, HostId(1)), vec![2 * MS, 0]);
    }

    fn build(shards: usize, loss: f64, seed: u64) -> ShardedGroupRuntime<GridNetwork> {
        let net = GridNetwork::new(MEMBERS + 1, 1_000, 100);
        let window = net.min_one_way();
        ShardedGroupRuntime::bootstrapped(
            group(),
            config(loss, seed, 1),
            net,
            MEMBERS,
            shards,
            window,
        )
        .expect("bootstrap fits the ID space")
    }

    /// Every live member's agent is at the server's interval with the
    /// server's group key, leavers hold nothing (a crashed member keeps
    /// whatever it died with), tables are K-consistent.
    fn assert_current(rt: &ShardedGroupRuntime<GridNetwork>, gone: &[usize]) {
        let server_interval = rt.server().interval();
        let group_key = rt.server().tree().group_key().expect("non-empty").clone();
        for handle in 0..rt.member_count() {
            if !rt.is_member_alive(handle) {
                continue;
            }
            if gone.contains(&handle) {
                assert!(rt.agent(handle).is_none(), "leaver {handle} kept its agent");
                continue;
            }
            let agent = rt.agent(handle).expect("survivor was welcomed");
            assert_eq!(agent.interval(), server_interval, "member {handle} lags");
            assert_eq!(agent.group_key(), Some(&group_key), "member {handle} stale");
        }
        rt.check_consistency().expect("tables stay K-consistent");
    }

    /// Every dealt member, and every follower replica's copy of the
    /// group, holds the primary group's table itself, not a copy.
    #[test]
    fn bootstrapped_members_and_replicas_share_the_groups_tables() {
        let net = GridNetwork::new(MEMBERS + 1, 1_000, 100);
        let window = net.min_one_way();
        let config = config(0.0, 1, 3);
        let rt = ShardedGroupRuntime::bootstrapped(group(), config, net, MEMBERS, 2, window)
            .expect("bootstrap fits the ID space");
        for handle in 0..MEMBERS {
            let dealt = rt.group().table(handle);
            let held = rt
                .member_table(handle)
                .expect("a dealt member holds a table");
            assert!(std::ptr::eq(held, &**dealt), "member {handle}");
            for follower in &rt.servers[1..] {
                assert!(Arc::ptr_eq(follower.server.group().table(handle), dealt));
            }
        }
    }

    /// Every member bootstraps current, rekey intervals propagate
    /// through the overlay, and leaves depart cleanly — under loss, with
    /// multiple shards.
    #[test]
    fn sharded_run_keeps_members_current() {
        let mut rt = build(4, 0.05, 3);
        assert_eq!(rt.member_count(), MEMBERS);
        assert_eq!(rt.server().interval(), 1);

        rt.leave_at(PERIOD / 2, 7);
        rt.leave_at(PERIOD + PERIOD / 3, 19);
        let end = rt.finish(4 * PERIOD - PERIOD / 2);
        assert!(end >= 4 * PERIOD - PERIOD / 2);

        let report = rt.snapshot();
        assert_eq!(report.members, MEMBERS - 2);
        assert_eq!(report.departures, 2);
        assert_eq!(report.welcomes, MEMBERS as u64);
        assert_eq!(report.leave_acks, 2);
        assert!(report.intervals >= 3, "got {} intervals", report.intervals);
        assert_eq!(
            report.checkpoints, 0,
            "one unfaulted replica journals nothing"
        );
        assert_eq!(report.pings, 0, "dealt members are not heartbeated");
        assert!(report.copies_lost > 0, "loss stream never drew");
        assert_current(&rt, &[7, 19]);
    }

    /// A concluded detection propagates as a failure notice: the server
    /// departs the member and repairs the survivors' tables.
    #[test]
    fn sharded_failure_departs_the_member() {
        let mut rt = build(4, 0.0, 9);
        rt.fail_at(PERIOD / 2, 5, 6);
        rt.finish(3 * PERIOD);
        let report = rt.snapshot();
        assert_eq!(report.departures, 1);
        assert_eq!(report.failures_detected, 1);
        assert_eq!(report.members, MEMBERS - 1);
        rt.check_consistency()
            .expect("repair left tables consistent");
    }

    /// A member the server departs while it still runs is told so, though
    /// a dealt member sends no heartbeat: a neighbor's wrongful
    /// `FailureNotice` departs live member 5, the interval that rekeys it
    /// out leaves it NACKing, and the server answers the NACK of a
    /// non-member with `NotMember`. The member rejoins, and `finish`
    /// converges with it back in the group.
    #[test]
    fn a_departed_live_member_is_told_and_rejoins() {
        let mut rt = build(4, 0.0, 9);
        rt.accuse_at(PERIOD / 2, 5, 6);
        rt.finish(3 * PERIOD);
        let report = rt.snapshot();
        assert_eq!(report.failures_detected, 1);
        assert_eq!(report.departures, 1);
        assert_eq!(report.rejoins, 1);
        assert_eq!(report.members, MEMBERS);
        assert!(rt.member(5).has_applied(rt.server().interval()));
        assert_current(&rt, &[]);
        rt.check_consistency()
            .expect("the rejoin left tables consistent");
    }

    /// The executor is deterministic: identically seeded runs — threads,
    /// mutexes, and all — render byte-identical snapshot JSON (member
    /// spans included), and a different seed diverges (the test would
    /// otherwise be vacuous).
    #[test]
    fn sharded_runs_are_byte_identical() {
        let run = |seed: u64| {
            let mut rt = build(4, 0.08, seed);
            rt.leave_at(PERIOD / 2, 11);
            rt.leave_at(2 * PERIOD + PERIOD / 4, 30);
            rt.finish(4 * PERIOD);
            rt.snapshot().to_json()
        };
        let first = run(0xD57E);
        let second = run(0xD57E);
        assert_eq!(first, second, "identical seeds must render identical JSON");
        assert!(
            first.contains("\"name\": \"apply\""),
            "member spans merged in"
        );
        let other = run(0xD57F);
        assert_ne!(first, other, "the seed must actually steer the run");
    }

    /// `finish` runs the live protocol until every live member is
    /// current. Member 5 is cut off from halfway through interval 3 until
    /// well after `until`, so it misses the ticks of intervals 4 and 5 and
    /// the first flushes of `finish`, and its NACKs go nowhere. The rounds
    /// after the cut heals reach it: its retry lineage is still running,
    /// a later flush's `Recover` gives it the latest interval, and it
    /// catches up.
    #[test]
    fn finish_waits_for_a_member_cut_off_through_its_first_flushes() {
        const CUT: usize = 5;
        let until = 4 * PERIOD + PERIOD / 2;
        let cell = vec![member_node_with_replicas(CUT, 1)];
        let plan =
            FaultPlan::new().partition(vec![cell], 2 * PERIOD + PERIOD / 2, until + 5 * PERIOD);
        let mut rt = build(1, 0.0, 7).with_faults(plan);
        rt.finish(until);
        let interval = rt.server().interval();
        assert!(interval >= 5, "the server ran intervals 4 and 5");
        let held = rt.agent(CUT).map(UserAgent::interval);
        assert!(
            rt.member(CUT).has_applied(interval),
            "member {CUT} holds interval {held:?} of the server's {interval}"
        );
        assert_current(&rt, &[]);
    }

    /// Workers start once per call, not once per window: a call that
    /// keeps four shards busy through many windows starts three threads,
    /// and one with nothing before its end starts none.
    #[test]
    fn workers_start_once_per_call() {
        let mut rt = build(4, 0.0, 5);
        let (windows, threads) = rt.run(4 * PERIOD);
        assert!(windows > 10, "only {windows} windows");
        assert_eq!(threads, 3, "the caller's thread takes one busy shard");
        assert_eq!(rt.run(4 * PERIOD), (0, 0));
    }

    /// Every member records its applications into its own shard's lane,
    /// and the snapshot folds every lane: after `finish` the apply-delay
    /// histogram counts exactly the intervals the members applied.
    #[test]
    fn member_histograms_fold_every_lane() {
        let mut rt = build(4, 0.08, 0xD57E);
        rt.leave_at(PERIOD / 2, 11);
        rt.leave_at(2 * PERIOD + PERIOD / 4, 30);
        rt.finish(4 * PERIOD);
        let applied: u64 = rt.members().map(|m| m.stats.intervals_applied).sum();
        assert!(applied > MEMBERS as u64, "members applied intervals");
        assert_eq!(rt.snapshot().apply_delay_us.count, applied);
    }

    /// Shard count must not change results, only the execution layout:
    /// 1 shard (fully sequential) and 4 shards agree on every counter.
    #[test]
    fn shard_count_is_an_execution_detail() {
        let run = |shards: usize| {
            let mut rt = build(shards, 0.08, 21);
            rt.leave_at(PERIOD / 2, 11);
            rt.finish(3 * PERIOD);
            rt.snapshot().to_json()
        };
        // `RuntimeConfig::loss` draws are per-lane streams, so counters
        // can only agree when the shard layout matches — pin the weaker,
        // still meaningful property on a lossless run instead.
        let lossless = |shards: usize| {
            let mut rt = build(shards, 0.0, 21);
            rt.leave_at(PERIOD / 2, 11);
            rt.finish(3 * PERIOD);
            rt.snapshot().to_json()
        };
        assert_eq!(lossless(1), lossless(4));
        // And with loss, each layout is at least self-consistent.
        assert_eq!(run(2), run(2));
    }

    /// The same under faults, which the sharded layout could not run
    /// before: a fault plan's loss and jitter streams are per *sender*,
    /// its partitions and outages pure in `(plan, now)`, so a replicated
    /// session with a partition, burst loss, a primary outage, leaves, a
    /// late joiner and a crash ends in the same place at 1 and 4 shards —
    /// roster, epoch, keys, every local table, and every counter.
    #[test]
    fn shard_count_is_an_execution_detail_under_faults() {
        const REPLICAS: usize = 3;
        let run = |shards: usize| {
            let net = GridNetwork::new(MEMBERS + 4, 1_000, 100);
            let window = net.min_one_way();
            let cell: Vec<NodeId> = (0..MEMBERS)
                .step_by(3)
                .map(|h| member_node_with_replicas(h, REPLICAS))
                .collect();
            let plan = FaultPlan::new()
                .burst_loss(GilbertElliott::moderate())
                .jitter(700)
                .partition(vec![cell], 2 * PERIOD, 4 * PERIOD)
                .outage(replica_node(0), 6 * PERIOD + PERIOD / 3, 14 * PERIOD);
            let mut rt = ShardedGroupRuntime::bootstrapped(
                group(),
                config(0.0, 33, REPLICAS),
                net,
                MEMBERS,
                shards,
                window,
            )
            .expect("bootstrap fits the ID space")
            .with_faults(plan);
            let joined = rt.run_trace(&[
                ChurnEvent::leave(PERIOD / 2, 7),
                ChurnEvent::leave(3 * PERIOD, 18),
                ChurnEvent::crash(4 * PERIOD + PERIOD / 2, 40),
                ChurnEvent::join(5 * PERIOD + 17),
            ]);
            assert_eq!(joined, [MEMBERS]);
            // The crashed member is not heartbeated by its dealt
            // neighbors; conclude the detection by hand. The last leave
            // falls into the outage and is retried onto the new primary.
            rt.fail_at(5 * PERIOD + PERIOD / 2, 40, 41);
            rt.leave_at(7 * PERIOD, 29);
            rt.finish(24 * PERIOD + 5);
            rt
        };
        let (one, four) = (run(1), run(4));
        let report = one.snapshot();
        assert_eq!(report.promotions, 1, "a follower took over");
        assert_eq!(report.restarts, 1, "the ex-primary came back");
        assert!(report.partition_cuts > 0 && report.fault_loss_drops > 0);
        assert!(report.suppressed > 0, "the outage swallowed deliveries");
        assert!(
            report.dead_letters > 0,
            "the crashed member absorbed traffic"
        );
        assert_eq!(one.server_epoch(), 1);
        assert_eq!(one.group().len(), MEMBERS + 1 - 4);
        assert_current(&one, &[7, 18, 29]);
        assert_current(&four, &[7, 18, 29]);

        assert_eq!(one.group().members(), four.group().members(), "rosters");
        assert_eq!(one.server_epoch(), four.server_epoch());
        assert_eq!(one.server().interval(), four.server().interval());
        for m in one.group().members() {
            assert_eq!(
                one.server()
                    .tree()
                    .user_path_keys(&m.id)
                    .collect::<Vec<_>>(),
                four.server()
                    .tree()
                    .user_path_keys(&m.id)
                    .collect::<Vec<_>>(),
                "path keys of {}",
                m.id
            );
            let records = |rt: &ShardedGroupRuntime<GridNetwork>| -> Vec<_> {
                let table = rt.member_table(m.host.0).expect("live member has a table");
                table.iter_all().copied().collect()
            };
            assert_eq!(records(&one), records(&four), "local table of {}", m.id);
        }
        assert_eq!(report, four.snapshot(), "every counter, histogram and span");
    }

    /// A `Table` push lost to a partition is repaired: the cut-off owner
    /// learns from a `Recover` that the server's version of its table is
    /// ahead of its own, resyncs, and ends up holding exactly the
    /// server's table — as does every other member, through a second
    /// leave after the heal that changes the owner's table again.
    #[test]
    fn a_lost_table_push_is_repaired_by_a_resync() {
        let net = GridNetwork::new(MEMBERS + 1, 1_000, 100);
        let window = net.min_one_way();
        let rt =
            ShardedGroupRuntime::bootstrapped(group(), config(0.0, 8, 1), net, MEMBERS, 2, window)
                .expect("bootstrap fits the ID space");
        // Member 0 was dealt first, so it is in many tables; cut one of
        // their owners off while member 0 leaves, and heal before finish.
        let gone = rt.group().members()[0].id;
        let owner = (1..MEMBERS)
            .find(|&h| rt.group().table(h).iter_all().any(|r| r.member.id == gone))
            .expect("member 0 is somebody's neighbor");
        let owner_id = rt.group().members()[owner].id;
        let cell = vec![member_node_with_replicas(owner, 1)];
        let plan = FaultPlan::new().partition(vec![cell], PERIOD / 4, 2 * PERIOD);
        let mut rt = rt.with_faults(plan);
        rt.leave_at(PERIOD / 2, 0);
        rt.run_until(PERIOD);
        let held = |rt: &ShardedGroupRuntime<GridNetwork>| {
            let table = rt.member_table(owner).expect("owner is live");
            table.iter_all().any(|r| r.member.id == gone)
        };
        assert!(rt.group().member(&gone).is_none(), "the leave went through");
        assert!(held(&rt), "the push to the cut-off owner was not lost");
        let idx = rt.group().index_of(&owner_id).expect("owner is a member");
        let neighbor = rt
            .group()
            .table(idx)
            .iter_all()
            .next()
            .expect("owner has neighbors");
        rt.leave_at(2 * PERIOD + PERIOD / 2, neighbor.member.host.0);

        rt.finish(5 * PERIOD);
        assert!(!held(&rt));
        assert!(rt.member_stats(owner).resyncs >= 1, "repaired by a resync");
        assert!(rt.snapshot().partition_cuts > 0);
        for (idx, m) in rt.group().members().iter().enumerate() {
            let table = rt.member_table(m.host.0).expect("member is live");
            assert!(
                table.iter_all().eq(rt.group().table(idx).iter_all()),
                "member {} holds a table the server does not",
                m.host.0
            );
        }
    }

    /// `run_to_interval` must not wait for a member that crashed but is
    /// not yet detected: it would spin its whole budget on it.
    #[test]
    fn run_to_interval_skips_crashed_members() {
        let mut rt = build(2, 0.0, 4);
        rt.run_trace(&[ChurnEvent::crash(PERIOD / 2, 9)]);
        assert!(!rt.is_member_alive(9));
        assert!(rt.run_to_interval(2), "interval 2 stalled on a dead member");
        assert!(rt.now() <= 2 * PERIOD, "took until {}", rt.now());
        assert_eq!(
            rt.agent(9).map(|a| a.interval()),
            Some(1),
            "the dead stay put"
        );
        assert!(
            rt.group().len() == MEMBERS,
            "undetected: still in the roster"
        );
    }

    /// What a wedged `finish` would report: the backlog by name and by
    /// member handle, not just "did not converge".
    #[test]
    fn flush_backlog_names_what_is_still_open() {
        let mut rt = build(2, 0.0, 6);
        rt.leave_at(PERIOD / 4, 13);
        rt.leave_at(PERIOD / 4, 31);
        // Mid-interval: both requests reached the server, neither is
        // rekeyed away or acknowledged yet.
        rt.run_until(PERIOD / 2);
        let (joins, leaves, owed) = rt.primary().flush_backlog(rt.config());
        assert_eq!((joins, leaves), (0, 2));
        assert_eq!(owed, [13, 31]);
        rt.finish(PERIOD / 2);
        assert_eq!(rt.primary().flush_backlog(rt.config()), (0, 0, Vec::new()));
        assert_eq!(rt.snapshot().leave_acks, 2);
    }

    /// A session built empty is the degenerate layout: one shard, a 1 µs
    /// window, heartbeats and journal on — and its members can be joined
    /// by a trace, which a dealt session could not do before.
    #[test]
    fn joins_work_on_both_layouts() {
        let net = GridNetwork::new(MEMBERS + 1, 1_000, 100);
        let mut empty = ShardedGroupRuntime::new(group(), config(0.0, 2, 1), net);
        let trace: Vec<ChurnEvent> = (0..6)
            .map(|i| ChurnEvent::join(1_000 + i * 7_000))
            .collect();
        assert_eq!(empty.run_trace(&trace), [0, 1, 2, 3, 4, 5]);
        empty.finish(3 * PERIOD);
        assert_eq!(empty.group().len(), 6);
        assert!(empty.snapshot().checkpoints >= 2, "built empty: journaled");
        assert_current(&empty, &[]);

        let net = GridNetwork::new(MEMBERS + 4, 1_000, 100);
        let window = net.min_one_way();
        let mut dealt =
            ShardedGroupRuntime::bootstrapped(group(), config(0.0, 2, 1), net, MEMBERS, 4, window)
                .unwrap();
        let joined = dealt.run_trace(&[
            ChurnEvent::join(PERIOD / 3),
            ChurnEvent::join(PERIOD + PERIOD / 3),
        ]);
        assert_eq!(joined, [MEMBERS, MEMBERS + 1]);
        dealt.finish(3 * PERIOD);
        assert_eq!(dealt.snapshot().joins, 2);
        assert_eq!(dealt.group().len(), MEMBERS + 2);
        assert_current(&dealt, &[]);
    }

    /// Followers replay to the primary's state: a three-replica session
    /// built empty, whose members join as `RtMsg` traffic and leave over
    /// 70 intervals, stepped half a period at a time. Whenever a
    /// follower's applied watermark is the primary's log head, it holds
    /// the primary's interval, group key, roster, mutation count, table
    /// versions and history; every replica's history, and the history of
    /// every checkpoint, stays within [`HISTORY_WINDOW`].
    #[test]
    fn followers_replay_to_the_primarys_state() {
        const INTERVALS: u64 = 70;
        let net = GridNetwork::new(MEMBERS + 1, 1_000, 100);
        let mut rt = ShardedGroupRuntime::new(group(), config(0.0, 3, 3), net);
        let mut trace: Vec<ChurnEvent> = (0..16)
            .map(|i| ChurnEvent::join(PERIOD / 5 + i * PERIOD / 10))
            .collect();
        for k in 0..30 {
            trace.push(ChurnEvent::join((3 + 2 * k) * PERIOD + PERIOD / 3));
            trace.push(ChurnEvent::leave(
                (4 + 2 * k) * PERIOD + PERIOD / 4,
                k as usize,
            ));
        }
        let view = |r: &RtServer| {
            let group = r.server.group();
            let versions: Vec<u64> = (0..group.len()).map(|i| group.table_version(i)).collect();
            let history: Vec<(u64, u64, u64, SimTime, usize)> = (r.history.iter())
                .map(|(&i, m)| (i, m.epoch, m.seq, m.sent_at, m.encryptions.len()))
                .collect();
            (
                (r.server.interval(), r.next_interval_at),
                r.server.tree().group_key().cloned(),
                (group.members().to_vec(), group.mutations(), versions),
                history,
            )
        };
        let (mut steps, mut caught_up, mut from) = (0, 0, 0);
        while rt.servers[0].server.interval() < INTERVALS {
            let until = from + PERIOD / 2;
            let due: Vec<ChurnEvent> = (trace.iter())
                .filter(|e| (from..until).contains(&e.at))
                .copied()
                .collect();
            rt.run_trace(&due);
            rt.run_until(until);
            from = until;
            steps += 1;
            assert_eq!(rt.acting_primary(), 0, "no replica fails");
            let primary = &rt.servers[0];
            let head = primary.repl.next_idx - 1;
            for replica in &rt.servers {
                assert!(replica.history.len() <= HISTORY_WINDOW);
                let checkpoint = replica.checkpoint.as_ref();
                assert!(checkpoint.is_none_or(|c| c.history.len() <= HISTORY_WINDOW));
            }
            for follower in &rt.servers[1..] {
                if follower.repl.applied_idx == head {
                    caught_up += 1;
                    assert_eq!(view(follower), view(primary), "step {steps}");
                }
            }
        }
        assert!(caught_up > steps, "{caught_up} matches in {steps} steps");
        let primary = &rt.servers[0];
        assert_eq!(primary.history.len(), HISTORY_WINDOW, "the window pruned");
        for replica in &rt.servers {
            let checkpoint = replica
                .checkpoint
                .as_ref()
                .expect("every replica checkpoints");
            assert_eq!(checkpoint.history.len(), HISTORY_WINDOW);
        }
        let report = rt.snapshot();
        assert_eq!((report.joins, report.departures), (46, 30));
        assert_eq!(report.promotions, 0);
    }
}
