//! The sharded event executor: the million-member runtime.
//!
//! [`super::GroupRuntime`] drives every node through one global event
//! queue — perfect for protocol fidelity, hopeless for a 10⁶-member
//! sweep where a single rekey interval produces millions of `Forward`
//! deliveries. This module keeps the *exact same* protocol state machines
//! (`RtServer`, `RtMember`) and replaces only the executor: members
//! are partitioned into shards by their level-1 ID digit, each shard owns
//! a private [`Scheduler`], and shards drain **windows** of simulated
//! time on scoped worker threads.
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
//! cross-shard traffic can therefore be exchanged once per window, at a
//! barrier, instead of per event. Within a window only a node's own
//! timers (`send_after`, always self-directed in this protocol) can land,
//! and those stay inside the node's own shard by construction. A
//! `debug_assert` on every cross-shard send enforces the invariant
//! dynamically, so an undersized delay model fails loudly in debug runs.
//!
//! # Determinism
//!
//! Identically seeded runs produce byte-identical [`MetricsSnapshot`]
//! JSON even though shards run on real threads:
//!
//! * each shard owns a private loss RNG (domain-separated from the
//!   coordinator's), and loss is drawn at **send** time in the sender's
//!   shard — never at a receive whose thread timing could vary;
//! * shard metrics are [`LocalHistogram`]s behind one mutex; histogram
//!   inserts commute, so lock-acquisition order cannot change the merge;
//! * per window the order is fixed: the coordinator drains the server,
//!   then workers drain their shards (disjoint `&mut`), then outboxes
//!   merge into destination schedulers in shard-index order.
//!
//! # What the sharded runtime does *not* model
//!
//! * **Heartbeats** are disarmed (members still *answer* `Ping`s): at
//!   10⁶ members the paper's per-neighbor probing is pure O(N·K·D)
//!   noise for a churn sweep, and failure detection is exercised by the
//!   classic runtime's tests.
//! * **Server crashes**: the journal is [`journal::Journal::disabled`],
//!   because a checkpoint clones the complete server state — O(N) per
//!   interval. Leave acks still ride the (skipped) checkpoint boundary.
//! * **Joins after bootstrap**: the group is built by
//!   [`GroupConfig::bootstrap`]'s O(N·D·B) dealing pass; churn is
//!   leaves/failures, which is where batch rekeying earns its keep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rekey_metrics::LocalHistogram;
use rekey_sim::{Outgoing, Scheduler, SimRng};

use crate::GroupError;

use super::*;

/// Domain separator of the per-shard loss RNG streams (same constant as
/// the classic runtime's loss stream; shards are further separated by
/// their index, the coordinator by [`SERVER`]).
const LOSS_SEED: u64 = 0x4C4F_5353; // "LOSS"

/// Shutdown-flush rounds before we declare the drain diverged.
const MAX_FLUSH_ROUNDS: u32 = 64;

/// State shared by every member across all shards: the knobs, the
/// shutdown flag, and the mutex-merged metric sinks. The `Send + Sync`
/// counterpart of the classic runtime's `Rc<Shared>`.
pub(crate) struct ShardCore {
    knobs: Knobs,
    shutdown: AtomicBool,
    metrics: Mutex<ShardMetrics>,
}

/// The member-side histogram sinks. All operations are commutative
/// (bucket increments), so recording under a shared mutex from many
/// worker threads is deterministic regardless of interleaving.
#[derive(Default)]
struct ShardMetrics {
    apply_delay_us: LocalHistogram,
    split_payload: LocalHistogram,
    forward_fanout: LocalHistogram,
    recovery_size: LocalHistogram,
}

impl ShardCore {
    /// Builds the shared member-side core. Also used by the real-socket
    /// driver ([`super::socket`]), whose worker threads need the same
    /// `Send + Sync` handle the shards use.
    pub(crate) fn new(knobs: Knobs) -> Arc<ShardCore> {
        Arc::new(ShardCore {
            knobs,
            shutdown: AtomicBool::new(false),
            metrics: Mutex::new(ShardMetrics::default()),
        })
    }

    /// Raises the shutdown flag: state machines stop re-arming timers.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Snapshots the four member-side histograms in declaration order
    /// (apply delay, split payload, forward fan-out, recovery size).
    pub(crate) fn member_histograms(&self) -> [rekey_metrics::HistogramSnapshot; 4] {
        let metrics = self.metrics.lock().unwrap();
        [
            metrics.apply_delay_us.snapshot(),
            metrics.split_payload.snapshot(),
            metrics.forward_fanout.snapshot(),
            metrics.recovery_size.snapshot(),
        ]
    }
}

impl SharedHandle for Arc<ShardCore> {
    fn knobs(&self) -> &Knobs {
        &self.knobs
    }
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
    fn record_split_payload(&self, v: u64) {
        self.metrics.lock().unwrap().split_payload.record(v);
    }
    fn record_forward_fanout(&self, v: u64) {
        self.metrics.lock().unwrap().forward_fanout.record(v);
    }
    fn record_apply(&self, _span: &'static str, sent_at: SimTime, now: SimTime, _interval: u64) {
        self.metrics
            .lock()
            .unwrap()
            .apply_delay_us
            .record(now.saturating_sub(sent_at));
    }
    fn record_recovery_size(&self, v: u64) {
        self.metrics.lock().unwrap().recovery_size.record(v);
    }
    fn span(&self, _name: &'static str, _start: SimTime, _end: SimTime, _detail: u64) {
        // Members record no spans in the sharded runtime: the span ring
        // lives in the coordinator's single-threaded registry.
    }
}

/// The server's handle: the same shared core (knobs, shutdown, member
/// histograms) plus the coordinator-only [`Registry`] for spans and the
/// key tree's counters. The server runs exclusively on the coordinator
/// thread, so the `Rc`-based registry never crosses a thread.
pub(crate) struct CoordHandle {
    core: Arc<ShardCore>,
    registry: Registry,
}

impl CoordHandle {
    /// Pairs the shared core with a coordinator-local span registry.
    /// Also the server handle of the real-socket driver.
    pub(crate) fn new(core: Arc<ShardCore>, registry: Registry) -> CoordHandle {
        CoordHandle { core, registry }
    }
}

impl SharedHandle for CoordHandle {
    fn knobs(&self) -> &Knobs {
        &self.core.knobs
    }
    fn is_shutdown(&self) -> bool {
        self.core.is_shutdown()
    }
    fn record_split_payload(&self, v: u64) {
        self.core.record_split_payload(v);
    }
    fn record_forward_fanout(&self, v: u64) {
        self.core.record_forward_fanout(v);
    }
    fn record_apply(&self, span: &'static str, sent_at: SimTime, now: SimTime, interval: u64) {
        self.core.record_apply(span, sent_at, now, interval);
        self.registry.span(span, sent_at, now, interval);
    }
    fn record_recovery_size(&self, v: u64) {
        self.core.record_recovery_size(v);
    }
    fn span(&self, name: &'static str, start: SimTime, end: SimTime, detail: u64) {
        self.registry.span(name, start, end, detail);
    }
}

/// One queued delivery inside a shard's scheduler.
struct Envelope {
    from: NodeId,
    to: NodeId,
    msg: RtMsg,
}

/// A message leaving its shard during a window; `at` is the (already
/// computed) arrival time, which the invariant guarantees lies at or
/// beyond the window's end.
struct Crossing {
    at: SimTime,
    from: NodeId,
    to: NodeId,
    msg: RtMsg,
}

/// One shard: a contiguous run of the executor owning a subset of the
/// members, their event queue, a private loss RNG, and delivery counters.
struct Shard {
    index: usize,
    members: Vec<RtMember<Arc<ShardCore>>>,
    sched: Scheduler<Envelope>,
    /// Loss draws for `Forward` copies sent *by this shard's members*.
    rng: SimRng,
    /// Cross-shard (and member→server) sends of the current window,
    /// merged by the coordinator after the workers join.
    outbox: Vec<Crossing>,
    delivered: u64,
    dropped: u64,
}

/// Drains every event of `shard` strictly before `t1`, routing in-shard
/// traffic and timers locally and pushing everything else onto the
/// shard's outbox. Runs on a worker thread; touches nothing but the
/// shard, the (read-only) network, and the placement table.
fn drain_shard<NET: Network + Sync>(
    shard: &mut Shard,
    net: &NET,
    placement: &[(u32, u32)],
    server_host: HostId,
    loss: f64,
    t1: SimTime,
) {
    let mut out: Vec<Outgoing<RtMsg>> = Vec::new();
    while shard.sched.next_time().is_some_and(|t| t < t1) {
        let (now, env) = shard.sched.pop().expect("peeked above");
        shard.delivered += 1;
        let (owner, idx) = placement[env.to.0 - 1];
        debug_assert_eq!(
            owner as usize, shard.index,
            "envelope routed to the wrong shard"
        );
        {
            let mut ctx = Ctx::external(now, env.to, &mut out);
            shard.members[idx as usize].receive(&mut ctx, env.from, env.msg);
        }
        for outgoing in out.drain(..) {
            match outgoing {
                Outgoing::Send { to, msg } => {
                    if loss > 0.0
                        && matches!(msg, RtMsg::Forward { .. })
                        && shard.rng.gen_bool(loss)
                    {
                        shard.dropped += 1;
                        continue;
                    }
                    let from_host = host_of_member_node(env.to);
                    let to_host = if to == SERVER {
                        server_host
                    } else {
                        host_of_member_node(to)
                    };
                    let at = now + net.one_way(from_host, to_host).max(1);
                    let local = to != SERVER && placement[to.0 - 1].0 as usize == shard.index;
                    if local {
                        shard.sched.schedule_at(
                            at,
                            Envelope {
                                from: env.to,
                                to,
                                msg,
                            },
                        );
                    } else {
                        debug_assert!(
                            at >= t1,
                            "cross-shard send inside the window: the window exceeds \
                             the minimum one-way delay"
                        );
                        shard.outbox.push(Crossing {
                            at,
                            from: env.to,
                            to,
                            msg,
                        });
                    }
                }
                Outgoing::After { to, delay, msg } => {
                    debug_assert_eq!(to, env.to, "runtime timers are self-directed");
                    shard.sched.schedule_at(
                        now + delay.max(1),
                        Envelope {
                            from: env.to,
                            to,
                            msg,
                        },
                    );
                }
            }
        }
    }
}

/// The sharded runtime: the classic protocol state machines under a
/// windowed multi-queue executor. Built fully populated via
/// [`ShardedGroupRuntime::bootstrapped`]; drive it with
/// [`ShardedGroupRuntime::leave_at`] / [`ShardedGroupRuntime::fail_at`]
/// and [`ShardedGroupRuntime::finish`], then read
/// [`ShardedGroupRuntime::snapshot`].
pub struct ShardedGroupRuntime<NET: Network + Sync> {
    net: Rc<NET>,
    server: RtServer<NET, CoordHandle>,
    server_sched: Scheduler<Envelope>,
    /// Loss draws for `Forward` copies seeded by the server.
    server_rng: SimRng,
    core: Arc<ShardCore>,
    registry: Registry,
    shards: Vec<Shard>,
    /// Member handle → (shard index, index within the shard).
    placement: Vec<(u32, u32)>,
    window: Micros,
    loss: f64,
    server_host: HostId,
    now: SimTime,
    delivered_coord: u64,
    dropped_coord: u64,
    peak_queue: usize,
}

impl<NET: Network + Sync> ShardedGroupRuntime<NET> {
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
        // The sharded engine models no server crashes (disabled journal)
        // and bakes the legacy node mapping into its shard routing.
        assert!(
            config.replicas() == 1,
            "the sharded runtime supports a single key-server replica"
        );
        assert!(
            members < net.host_count(),
            "need a host per member plus one for the server"
        );
        let net = Rc::new(net);
        let server_host = HostId(net.host_count() - 1);
        let hosts: Vec<HostId> = (0..members).map(HostId).collect();
        let (mut server_fsm, welcomes) = group.bootstrap(server_host, &hosts, &*net)?;

        let core = Arc::new(ShardCore {
            knobs: Knobs::of_config(&config),
            shutdown: AtomicBool::new(false),
            metrics: Mutex::new(ShardMetrics::default()),
        });
        let registry = Registry::new();
        server_fsm.instrument_tree(TreeMetrics::in_registry(&registry));
        let base = server_fsm.group().spec().base();
        let shard_count = shards.min(base as usize);

        let mut shard_list: Vec<Shard> = (0..shard_count)
            .map(|index| Shard {
                index,
                members: Vec::new(),
                sched: Scheduler::new(),
                // Shard streams are separated by index + 1 so none
                // collides with the coordinator's (node 0 = SERVER).
                rng: node_rng(config.seed ^ LOSS_SEED, NodeId(index + 1)),
                outbox: Vec::new(),
                delivered: 0,
                dropped: 0,
            })
            .collect();

        // Welcomes come back in member order (bootstrap deals IDs in
        // host order), so handle i pairs welcomes[i] with members()[i].
        let mut placement = Vec::with_capacity(members);
        let first_deadline = config.rekey_period + config.nack_grace;
        for (i, welcome) in welcomes.into_iter().enumerate() {
            let record = server_fsm.group().members()[i];
            let table = server_fsm.group().table(i).clone();
            debug_assert_eq!(record.id, welcome.id);
            let shard_index = (record.id.digit(0) as usize) % shard_count;

            let mut member = RtMember::new(Arc::clone(&core));
            member.member = Some(record);
            member.table = Some(table);
            member.server_interval_seen = welcome.interval;
            member.agent = Some(UserAgent::from_welcome(welcome));
            // Mirror `arm_check` after a Welcome: expect interval 2 to
            // close at the first rekey boundary. Heartbeats stay
            // disarmed (see the module docs).
            member.check_gen = 1;
            member.next_boundary = config.rekey_period;
            member.expected_interval = 2;

            let node = node_of_host(HostId(i));
            let shard = &mut shard_list[shard_index];
            placement.push((shard_index as u32, shard.members.len() as u32));
            shard.sched.schedule_at(
                first_deadline,
                Envelope {
                    from: node,
                    to: node,
                    msg: RtMsg::IntervalCheck { gen: 1 },
                },
            );
            shard.members.push(member);
        }

        let server = RtServer {
            net: Rc::clone(&net),
            shared: CoordHandle {
                core: Arc::clone(&core),
                registry: registry.clone(),
            },
            server: server_fsm,
            epoch: 0,
            seq: 0,
            tick_gen: 0,
            next_interval_at: config.rekey_period,
            last_round_at: 0,
            history: BTreeMap::new(),
            split_index: SplitIndexMaintainer::default(),
            journal: journal::Journal::disabled(),
            pending_leave_acks: Vec::new(),
            repl: Replication::new(0, 1),
            stats: ServerStats {
                welcomes: members as u64,
                ..ServerStats::default()
            },
        };

        let mut server_sched = Scheduler::new();
        server_sched.schedule_at(
            config.rekey_period,
            Envelope {
                from: SERVER,
                to: SERVER,
                msg: RtMsg::IntervalTick { gen: 0 },
            },
        );

        Ok(ShardedGroupRuntime {
            server,
            server_sched,
            server_rng: node_rng(config.seed ^ LOSS_SEED, SERVER),
            core,
            registry,
            shards: shard_list,
            placement,
            window,
            loss: config.loss,
            server_host,
            now: 0,
            delivered_coord: 0,
            dropped_coord: 0,
            peak_queue: 0,
            net,
        })
    }

    /// Schedules member `handle`'s voluntary `LeaveRequest` at `at`.
    pub fn leave_at(&mut self, at: SimTime, handle: usize) {
        self.inject(at, handle, RtMsg::LeaveRequest);
    }

    /// Schedules a crash of member `handle` at `at`: a neighbor's
    /// `FailureNotice` reaches the server as if detection concluded, and
    /// the member itself goes silent (departs) when the repair broadcast
    /// arrives.
    pub fn fail_at(&mut self, at: SimTime, handle: usize, accuser: usize) {
        let failed = self.shards[self.placement[handle].0 as usize].members
            [self.placement[handle].1 as usize]
            .member
            .as_ref()
            .expect("bootstrapped members all hold a record")
            .id;
        let accuser_node = node_of_host(HostId(accuser));
        let at = at.max(self.server_sched.now());
        self.server_sched.schedule_at(
            at,
            Envelope {
                from: accuser_node,
                to: SERVER,
                msg: RtMsg::FailureNotice { failed },
            },
        );
    }

    /// Schedules `msg` as a self-delivery at member `handle`.
    fn inject(&mut self, at: SimTime, handle: usize, msg: RtMsg) {
        let (shard_index, _) = self.placement[handle];
        let node = node_of_host(HostId(handle));
        let shard = &mut self.shards[shard_index as usize];
        let at = at.max(shard.sched.now());
        shard.sched.schedule_at(
            at,
            Envelope {
                from: node,
                to: node,
                msg,
            },
        );
    }

    /// Earliest pending event anywhere, or `None` when fully idle.
    fn min_next(&self) -> Option<SimTime> {
        let mut next = self.server_sched.next_time();
        for shard in &self.shards {
            next = match (next, shard.sched.next_time()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        next
    }

    /// Drains the server's events strictly before `t1` on the
    /// coordinator thread, scheduling its sends straight into the
    /// destination shards (safe before the workers start; the invariant
    /// puts every arrival at or beyond `t1`).
    fn drain_server(&mut self, t1: SimTime) {
        let mut out: Vec<Outgoing<RtMsg>> = Vec::new();
        while self.server_sched.next_time().is_some_and(|t| t < t1) {
            let (now, env) = self.server_sched.pop().expect("peeked above");
            self.delivered_coord += 1;
            {
                let mut ctx = Ctx::external(now, SERVER, &mut out);
                self.server.receive(&mut ctx, env.from, env.msg);
            }
            for outgoing in out.drain(..) {
                match outgoing {
                    Outgoing::Send { to, msg } => {
                        if self.loss > 0.0
                            && matches!(msg, RtMsg::Forward { .. })
                            && self.server_rng.gen_bool(self.loss)
                        {
                            self.dropped_coord += 1;
                            continue;
                        }
                        debug_assert_ne!(to, SERVER, "the server never unicasts itself");
                        let at = now
                            + self
                                .net
                                .one_way(self.server_host, host_of_member_node(to))
                                .max(1);
                        debug_assert!(at >= t1, "server send inside the window");
                        let (shard_index, _) = self.placement[to.0 - 1];
                        self.shards[shard_index as usize].sched.schedule_at(
                            at,
                            Envelope {
                                from: SERVER,
                                to,
                                msg,
                            },
                        );
                    }
                    Outgoing::After { to, delay, msg } => {
                        debug_assert_eq!(to, SERVER, "server timers are self-directed");
                        self.server_sched.schedule_at(
                            now + delay.max(1),
                            Envelope {
                                from: SERVER,
                                to,
                                msg,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Runs one window: pick `t0` (earliest event anywhere), drain
    /// everything in `[t0, min(t0 + W, cap))` — server first on the
    /// coordinator, then the due shards on scoped worker threads — and
    /// merge the outboxes in shard-index order. Returns `false` when no
    /// event remains before `cap`.
    fn step_window(&mut self, cap: Option<SimTime>) -> bool {
        let Some(t0) = self.min_next() else {
            return false;
        };
        if cap.is_some_and(|c| t0 >= c) {
            return false;
        }
        let mut t1 = t0.saturating_add(self.window);
        if let Some(c) = cap {
            t1 = t1.min(c);
        }

        let depth = self.server_sched.pending()
            + self.shards.iter().map(|s| s.sched.pending()).sum::<usize>();
        self.peak_queue = self.peak_queue.max(depth);

        self.drain_server(t1);

        let placement: &[(u32, u32)] = &self.placement;
        let net: &NET = &self.net;
        let loss = self.loss;
        let server_host = self.server_host;
        let mut due = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sched.next_time().is_some_and(|t| t < t1))
            .map(|(i, _)| i);
        match (due.next(), due.next()) {
            (None, _) => {}
            (Some(only), None) => {
                // One busy shard: drain inline, skip the thread spawn.
                drain_shard(
                    &mut self.shards[only],
                    net,
                    placement,
                    server_host,
                    loss,
                    t1,
                );
            }
            (Some(_), Some(_)) => {
                std::thread::scope(|scope| {
                    for shard in self.shards.iter_mut() {
                        if shard.sched.next_time().is_some_and(|t| t < t1) {
                            scope.spawn(move || {
                                drain_shard(shard, net, placement, server_host, loss, t1);
                            });
                        }
                    }
                });
            }
        }

        // Merge outboxes in shard-index order: together with the
        // scheduler's FIFO tie-break this fixes the delivery order of
        // same-instant cross-shard messages independently of thread
        // timing.
        for index in 0..self.shards.len() {
            let crossings = std::mem::take(&mut self.shards[index].outbox);
            for crossing in crossings {
                let Crossing { at, from, to, msg } = crossing;
                if to == SERVER {
                    self.server_sched
                        .schedule_at(at, Envelope { from, to, msg });
                } else {
                    let (shard_index, _) = self.placement[to.0 - 1];
                    self.shards[shard_index as usize]
                        .sched
                        .schedule_at(at, Envelope { from, to, msg });
                }
            }
        }

        self.now = self.now.max(t1);
        true
    }

    /// Runs the simulation until `until`: every event strictly before
    /// `until` is processed.
    pub fn run_until(&mut self, until: SimTime) {
        while self.step_window(Some(until)) {}
        self.now = self.now.max(until);
    }

    /// Drains every pending event, windows included, until fully idle.
    fn drain(&mut self) {
        while self.step_window(None) {}
    }

    /// Runs to `until`, then shuts down: timers stop re-arming, the
    /// queues drain, and shutdown `Flush` rounds run until the server
    /// holds no pending membership work and no unacknowledged leaves
    /// (mirrors [`GroupRuntime::finish`]). Returns the final simulated
    /// time.
    pub fn finish(&mut self, until: SimTime) -> SimTime {
        self.run_until(until);
        self.core.shutdown.store(true, Ordering::Release);
        self.drain();
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(
                rounds <= MAX_FLUSH_ROUNDS,
                "shutdown flush did not converge"
            );
            let at = self.now.max(self.server_sched.now());
            self.server_sched.schedule_at(
                at,
                Envelope {
                    from: SERVER,
                    to: SERVER,
                    msg: RtMsg::Flush,
                },
            );
            self.drain();
            let (joins, leaves) = self.server.server.pending();
            if joins == 0 && leaves == 0 && self.server.pending_leave_acks.is_empty() {
                return self.now;
            }
        }
    }

    /// Current simulated time (the end of the last drained window).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Members dealt in at bootstrap (handles are `0..member_count()`).
    pub fn member_count(&self) -> usize {
        self.placement.len()
    }

    /// The server's group state machine.
    pub fn server(&self) -> &GroupServer {
        &self.server.server
    }

    /// The authoritative membership view.
    pub fn group(&self) -> &Group {
        self.server.server.group()
    }

    /// Member `handle`'s key agent (`None` after it departed).
    pub fn agent(&self, handle: usize) -> Option<&UserAgent> {
        let (shard_index, idx) = *self.placement.get(handle)?;
        self.shards[shard_index as usize].members[idx as usize]
            .agent
            .as_ref()
    }

    /// Member `handle`'s counters.
    pub fn member_stats(&self, handle: usize) -> MemberStats {
        let (shard_index, idx) = self.placement[handle];
        self.shards[shard_index as usize].members[idx as usize].stats
    }

    /// Verifies K-consistency of every live member's local table against
    /// the authoritative membership (test/debug helper; O(N²·D·B)).
    pub fn check_consistency(&self) -> Result<(), ConsistencyViolation> {
        let group = self.server.server.group();
        let members: Vec<Member> = group.members().to_vec();
        let tables: Vec<NeighborTable> = members
            .iter()
            .map(|m| {
                let (shard_index, idx) = self.placement[m.host.0];
                self.shards[shard_index as usize].members[idx as usize]
                    .table
                    .clone()
                    .expect("admitted member holds a table")
            })
            .collect();
        check_consistency(group.spec(), &members, &tables, group.k())
    }

    /// Aggregates the session's counters, histograms, and spans into the
    /// same [`MetricsSnapshot`] the classic runtime produces.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let server = self.server.stats;
        let registry = self.registry.snapshot();
        let counter = |name: &str| registry.counters.get(name).copied().unwrap_or(0);
        let metrics = self.core.metrics.lock().unwrap();
        let mut snapshot = MetricsSnapshot {
            intervals: server.intervals,
            members: self.group().len(),
            joins: server.joins,
            departures: server.departures,
            failures_detected: server.failures_detected,
            forward_copies: server.forward_copies,
            copies_lost: self.dropped_coord + self.shards.iter().map(|s| s.dropped).sum::<u64>(),
            dead_letters: 0,
            suppressed: 0,
            nacks: server.nacks,
            recovery_encryptions: server.recovery_encryptions,
            pings: 0,
            evictions: 0,
            retransmissions: 0,
            max_retry_attempts: 0,
            resyncs: server.resyncs,
            rejoins: 0,
            rehabilitations: 0,
            restarts: server.restarts,
            checkpoints: server.checkpoints,
            delivered: self.delivered_coord + self.shards.iter().map(|s| s.delivered).sum::<u64>(),
            welcomes: server.welcomes,
            leave_acks: server.leave_acks,
            tree_encryptions: counter("tree_encryptions"),
            tombstone_hits: counter("tree_tombstone_hits"),
            partition_cuts: 0,
            fault_loss_drops: 0,
            elections: server.elections,
            promotions: server.promotions,
            lost_mutations: server.lost_mutations,
            repl_lag_peak: server.repl_lag_peak,
            peak_queue_depth: self.peak_queue,
            apply_delay_us: metrics.apply_delay_us.snapshot(),
            batch_size: registry
                .histograms
                .get("tree_batch_size")
                .cloned()
                .unwrap_or_default(),
            split_payload: metrics.split_payload.snapshot(),
            forward_fanout: metrics.forward_fanout.snapshot(),
            recovery_size: metrics.recovery_size.snapshot(),
            spans: registry.spans,
            spans_dropped: registry.spans_dropped,
        };
        for &(shard_index, idx) in &self.placement {
            let stats = &self.shards[shard_index as usize].members[idx as usize].stats;
            snapshot.forward_copies += stats.copies_forwarded;
            snapshot.pings += stats.pings_sent;
            snapshot.evictions += stats.evictions;
            snapshot.retransmissions += stats.retransmissions;
            snapshot.max_retry_attempts = snapshot.max_retry_attempts.max(stats.max_retry_attempts);
            snapshot.rejoins += stats.rejoins;
            snapshot.rehabilitations += stats.rehabilitations;
        }
        snapshot
    }
}

impl<NET: Network + Sync> Driver for ShardedGroupRuntime<NET> {
    fn server_fsm(&self) -> &GroupServer {
        self.server()
    }

    fn member_count(&self) -> usize {
        self.placement.len()
    }

    fn agent_of(&self, handle: usize) -> Option<&UserAgent> {
        self.agent(handle)
    }

    fn leave(&mut self, handle: usize) {
        let at = self.now;
        self.leave_at(at, handle);
    }

    fn run_to_interval(&mut self, target: u64) -> bool {
        let period = self.core.knobs.rekey_period.max(4);
        for _ in 0..100_000 {
            let reached = self.server.server.interval() >= target
                && self.placement.iter().all(|&(shard_index, idx)| {
                    let member = &self.shards[shard_index as usize].members[idx as usize];
                    member.departed
                        || member
                            .agent
                            .as_ref()
                            .is_some_and(|a| a.interval() >= target)
                });
            if reached {
                return true;
            }
            let until = self.now + period / 4;
            self.run_until(until);
        }
        false
    }

    fn finish_run(&mut self) -> bool {
        let now = self.now;
        self.finish(now);
        true
    }

    fn verify_consistency(&self) -> Result<(), ConsistencyViolation> {
        self.check_consistency()
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.snapshot()
    }
}

/// The scoped spawns require `&mut Shard: Send`; pin that down as a
/// compile-time fact so a future `Rc` smuggled into member state fails
/// here with a readable error instead of inside `thread::scope`.
#[allow(dead_code)]
fn assert_shard_is_send() {
    fn is_send<T: Send>() {}
    is_send::<Shard>();
    is_send::<RtMember<Arc<ShardCore>>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_id::IdSpec;
    use rekey_net::GridNetwork;

    const MEMBERS: usize = 48;
    const PERIOD: SimTime = 400_000;

    fn build(shards: usize, loss: f64, seed: u64) -> ShardedGroupRuntime<GridNetwork> {
        let net = GridNetwork::new(MEMBERS + 1, 1_000, 100);
        let window = net.min_one_way();
        let group = GroupConfig::for_spec(&IdSpec::new(3, 4).unwrap())
            .k(2)
            .seed(11);
        let config = RuntimeConfig::builder()
            .rekey_period(PERIOD)
            .nack_grace(PERIOD / 4)
            // No heartbeats fire: the sharded runtime disarms them, but
            // keep the period out of the run anyway.
            .heartbeat_period(1 << 40)
            .loss(loss)
            .retry_base(PERIOD / 8)
            .seed(seed)
            .build();
        ShardedGroupRuntime::bootstrapped(group, config, net, MEMBERS, shards, window)
            .expect("bootstrap fits the ID space")
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
        assert_eq!(report.checkpoints, 0, "journal is disabled");
        assert_eq!(report.pings, 0, "heartbeats are disarmed");
        assert!(report.copies_lost > 0, "loss stream never drew");

        let server_interval = rt.server().interval();
        let group_key = rt.server().tree().group_key().expect("non-empty").clone();
        for handle in 0..MEMBERS {
            if handle == 7 || handle == 19 {
                assert!(rt.agent(handle).is_none(), "leaver {handle} kept its agent");
                continue;
            }
            let agent = rt.agent(handle).expect("survivor was welcomed");
            assert_eq!(agent.interval(), server_interval, "member {handle} lags");
            assert_eq!(agent.group_key(), Some(&group_key), "member {handle} stale");
        }
        rt.check_consistency().expect("tables stay K-consistent");
    }

    /// A crash propagates as a failure notice: the server departs the
    /// member and repairs the survivors' tables.
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

    /// The executor is deterministic: identically seeded runs — threads,
    /// mutexes, and all — render byte-identical snapshot JSON, and a
    /// different seed diverges (the test would otherwise be vacuous).
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
        let other = run(0xD57F);
        assert_ne!(first, other, "the seed must actually steer the run");
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
        // Loss draws are per-shard streams, so counters can only agree
        // when the shard layout matches — pin the weaker, still
        // meaningful property on a lossless run instead.
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
}
