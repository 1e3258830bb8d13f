//! The event-driven group runtime: one long-lived simulation in which the
//! key server and every member are [`rekey_sim::Node`]s on a single clock.
//!
//! The synchronous [`GroupServer`]/[`UserAgent`] facade executes the
//! protocol one interval at a time with the caller as the clock; this
//! module drives the *same* state machines from a discrete-event schedule,
//! which is what the paper's own evaluation does (§4): "we simulate the
//! sending and the reception of a message as events". One implementation,
//! two drivers — the global-knowledge [`Group`] inside the server stays
//! the oracle that equivalence tests compare against.
//!
//! # Message taxonomy
//!
//! * **Timers** (`send_after`, immune to loss and jitter): `IntervalTick`
//!   fires the periodic rekey at the server (§1: "periodic batch
//!   rekeying"), `HeartbeatTick` drives each member's neighbor pings
//!   (§3.2), `IntervalCheck` is each member's NACK deadline per interval,
//!   `RetryTick` drives the bounded-retry machinery. Every timer carries a
//!   generation number so a restart can cancel a stale chain.
//! * **Membership control** (unicast, retransmitted until acknowledged):
//!   `JoinRequest` / `JoinAccepted` admit a member into the overlay
//!   mid-interval (its keys arrive in `Welcome` at the interval end);
//!   `LeaveRequest` / `LeaveAck` retire one — the ack is only sent after
//!   the departure reaches the crash journal, so an acknowledged leave can
//!   never roll back; `NewMember` / `MemberLeft` carry the server-assisted
//!   table updates of §3.2 under a per-mutation sequence number, so a
//!   member can detect (and resync across) any update it missed.
//! * **Rekey transport** (`Forward`, subject to per-copy loss): the
//!   `FORWARD` routine of Fig. 2 executed hop by hop, each copy carrying
//!   the split index plus the served prefix (Fig. 5). `Nack` / `Recover`
//!   implement the companion work's limited unicast recovery \[31\]: a
//!   member that misses an interval fetches exactly its related set —
//!   Lemma 3 makes the need locally checkable — from the server. NACKs
//!   retry with exponential backoff up to a cap, then escalate to a full
//!   `ResyncRequest` / `Resync` snapshot.
//! * **Failure detection** (`Ping` / `Pong`, `ServerPing` / `ServerPong`):
//!   members ping every stored neighbor each heartbeat period; an
//!   unanswered ping evicts the record ([`NeighborTable::evict_where`]),
//!   notifies the server (`FailureNotice`, re-sent each beat until the
//!   repair broadcast lands), and triggers the same repair as a leave.
//!   Evicted records stay on probation: a suspect that answers a later
//!   probe is reinstated, so a transient partition does not permanently
//!   shrink tables. Each beat also pings the *server*, which either
//!   vouches for the member (`ServerPong`, carrying the epoch, the
//!   mutation sequence number, and the current interval — the member's
//!   evidence for NACKs and resyncs) or disowns it (`NotMember`, after
//!   which the member rejoins from scratch).
//!
//! # Failure model and self-healing
//!
//! Crashed nodes are [`rekey_sim::Simulation::kill`]ed: they absorb all
//! traffic silently. Only `Forward` copies are subject to the *loss
//! model* (the bulk rekey payload on a UDP-like path); control traffic is
//! reliable on a healthy network, matching the paper's assumption that
//! notifications and unicast recovery ride TCP. On top of that,
//! [`GroupRuntime::with_faults`] wires a [`FaultPlan`] into the run:
//! partitions cut *all* traffic across cells, outages silence single
//! nodes (including the server) for a window, jitter reorders messages,
//! and i.i.d./burst loss thins the `Forward` stream. The protocol heals
//! from each of these without outside help:
//!
//! * a member behind a partition keeps retransmitting its join or leave
//!   with exponential backoff until the network heals;
//! * a member wrongfully evicted during a partition learns its fate from
//!   the server's `NotMember` and rejoins from scratch;
//! * a member that missed membership updates (sequence gap) or rekey
//!   intervals beyond the NACK retry cap resyncs from a server snapshot;
//! * the server checkpoints itself into a [`journal::Journal`] after
//!   every interval's multicast; a restart (modeled by a `Restart` event
//!   at the outage window's end) restores the latest checkpoint, bumps
//!   the *epoch*, and re-announces itself with an immediate interval, and
//!   every member that observes the new epoch resyncs.
//!
//! Every surviving member holds the current group key once
//! [`GroupRuntime::finish`] drains: the final flush rounds push each
//! member its latest related set, members NACK any gap immediately, and
//! the server answers from its per-interval history.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::Rng;
use rekey_keytree::TreeMetrics;
use rekey_metrics::{json, Histogram, HistogramSnapshot, Registry, SpanRecord};
use rekey_net::{HostId, Micros, Network};
use rekey_sim::{
    node_rng, seeded_rng, Ctx, FaultInjector, FaultPlan, Node, NodeId, SimTime, Simulation,
};
use rekey_table::{check_consistency, ConsistencyViolation, Member, NeighborTable};

use crate::transport::SplitIndexMaintainer;
use crate::{Group, GroupConfig, GroupServer, UserAgent};

pub mod journal;
pub mod shard;

pub use shard::ShardedGroupRuntime;

pub(crate) mod core;
pub mod socket;
pub mod wire;

#[allow(unused_imports)]
pub(crate) use self::core::{
    host_of_member_node, node_of_host, Knobs, ReplRole, Replication, RtMember, RtServer,
    SharedHandle, SERVER,
};
pub use self::core::{IntervalMessage, MemberStats, Outputs, ReplOp, RtMsg, ServerStats};
pub use socket::{NotConverged, UdpGroupDriver};

/// Domain separator for the chaos injector's seed, so fault randomness is
/// decoupled from the legacy loss stream and the heartbeat stagger.
const CHAOS_SEED: u64 = 0x43_48_41_4F_53; // "CHAOS"

/// Timing, loss, retry, and seeding knobs of a [`GroupRuntime`].
///
/// Constructed through [`RuntimeConfig::builder`] (mirroring the
/// [`GroupConfig`] builder), which validates every knob in
/// [`RuntimeConfigBuilder::build`] — so a `RuntimeConfig` in hand is
/// valid by construction and [`GroupRuntime::new`] never has to reject
/// one. [`RuntimeConfig::default`] is the validated default set.
///
/// ```
/// use rekey_proto::RuntimeConfig;
///
/// let config = RuntimeConfig::builder()
///     .rekey_period(5_000_000)
///     .loss(0.02)
///     .seed(42)
///     .build();
/// assert_eq!(config.rekey_period(), 5_000_000);
/// assert_eq!(config.retry_cap(), RuntimeConfig::default().retry_cap());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    rekey_period: SimTime,
    heartbeat_period: SimTime,
    nack_grace: SimTime,
    loss: f64,
    retry_base: SimTime,
    retry_cap: u32,
    seed: u64,
    replicas: usize,
}

impl RuntimeConfig {
    /// Starts a builder from the default knobs.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder(RuntimeConfig::default())
    }

    /// Rekey interval length (µs): the server batch-rekeys on this period.
    pub fn rekey_period(&self) -> SimTime {
        self.rekey_period
    }

    /// Heartbeat period (µs): how often each member pings its stored
    /// neighbors. A ping unanswered by the next beat evicts the neighbor.
    pub fn heartbeat_period(&self) -> SimTime {
        self.heartbeat_period
    }

    /// Grace (µs) after an interval boundary before a member NACKs a
    /// missing rekey message.
    pub fn nack_grace(&self) -> SimTime {
        self.nack_grace
    }

    /// Independent per-copy loss probability applied to `Forward` copies.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// First retransmit timeout (µs) of the bounded-retry machinery; each
    /// further attempt doubles it.
    pub fn retry_base(&self) -> SimTime {
        self.retry_base
    }

    /// Retry attempt cap: the backoff exponent saturates here, and a NACK
    /// retried this many times escalates to a full resync.
    pub fn retry_cap(&self) -> u32 {
        self.retry_cap
    }

    /// Seed for the runtime's randomness (loss draws, heartbeat stagger,
    /// fault injection). Independent of the [`GroupConfig`]
    /// key-generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Key-server replicas (≥ 1). With more than one, the primary streams
    /// its mutation log to follower replicas and a deterministic election
    /// promotes the most-caught-up follower when the primary dies.
    pub fn replicas(&self) -> usize {
        self.replicas
    }
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            rekey_period: 10_000_000,
            heartbeat_period: 15_000_000,
            nack_grace: 2_000_000,
            loss: 0.0,
            retry_base: 1_000_000,
            retry_cap: 5,
            seed: 0,
            replicas: 1,
        }
    }
}

/// Fluent builder of a [`RuntimeConfig`]; every knob starts at its
/// default. Validation happens once, in [`RuntimeConfigBuilder::build`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfigBuilder(RuntimeConfig);

impl RuntimeConfigBuilder {
    /// Rekey interval length (µs). Must be positive.
    pub fn rekey_period(mut self, period: SimTime) -> RuntimeConfigBuilder {
        self.0.rekey_period = period;
        self
    }

    /// Heartbeat period (µs). Must be positive.
    pub fn heartbeat_period(mut self, period: SimTime) -> RuntimeConfigBuilder {
        self.0.heartbeat_period = period;
        self
    }

    /// NACK grace (µs). Must be positive and should exceed the worst
    /// overlay delivery delay (debug builds warn at runtime construction
    /// when it does not even cover a server round trip).
    pub fn nack_grace(mut self, grace: SimTime) -> RuntimeConfigBuilder {
        self.0.nack_grace = grace;
        self
    }

    /// Per-copy `Forward` loss probability. Must be in `[0, 1)`.
    pub fn loss(mut self, loss: f64) -> RuntimeConfigBuilder {
        self.0.loss = loss;
        self
    }

    /// First retransmit timeout (µs). Must be positive.
    pub fn retry_base(mut self, base: SimTime) -> RuntimeConfigBuilder {
        self.0.retry_base = base;
        self
    }

    /// Retry attempt cap.
    pub fn retry_cap(mut self, cap: u32) -> RuntimeConfigBuilder {
        self.0.retry_cap = cap;
        self
    }

    /// Runtime randomness seed.
    pub fn seed(mut self, seed: u64) -> RuntimeConfigBuilder {
        self.0.seed = seed;
        self
    }

    /// Key-server replica count (≥ 1; 1 means the classic single server).
    pub fn replicas(mut self, replicas: usize) -> RuntimeConfigBuilder {
        self.0.replicas = replicas;
        self
    }

    /// Validates and produces the config.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1)` or any of the periods
    /// (`rekey_period`, `heartbeat_period`, `nack_grace`, `retry_base`)
    /// is zero — a zero rekey interval or NACK grace would spin the event
    /// loop at a single instant.
    pub fn build(self) -> RuntimeConfig {
        let config = self.0;
        assert!(
            (0.0..1.0).contains(&config.loss),
            "loss probability must be in [0, 1)"
        );
        assert!(config.rekey_period > 0, "rekey period must be positive");
        assert!(config.nack_grace > 0, "nack grace must be positive");
        assert!(
            config.heartbeat_period > 0,
            "heartbeat period must be positive"
        );
        assert!(config.retry_base > 0, "retry base must be positive");
        assert!(config.replicas >= 1, "at least one key-server replica");
        config
    }
}

/// One scheduled churn action for [`GroupRuntime::run_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// A new host joins; it gets the next member handle (join order).
    Join,
    /// Member (by join handle) leaves voluntarily.
    Leave(usize),
    /// Member (by join handle) crashes silently: its node is killed and
    /// only heartbeat detection removes it from the group.
    Crash(usize),
}

/// A churn action with its simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Absolute simulated time of the action.
    pub at: SimTime,
    /// The action.
    pub op: ChurnOp,
}

impl ChurnEvent {
    /// A join at `at`.
    pub fn join(at: SimTime) -> ChurnEvent {
        ChurnEvent {
            at,
            op: ChurnOp::Join,
        }
    }

    /// A voluntary leave of join-handle `member` at `at`.
    pub fn leave(at: SimTime, member: usize) -> ChurnEvent {
        ChurnEvent {
            at,
            op: ChurnOp::Leave(member),
        }
    }

    /// A silent crash of join-handle `member` at `at`.
    pub fn crash(at: SimTime, member: usize) -> ChurnEvent {
        ChurnEvent {
            at,
            op: ChurnOp::Crash(member),
        }
    }
}

/// Metric handles shared by every node of one runtime, all registered in
/// one [`Registry`] (which the server's [`TreeMetrics`] also reports
/// into). Recording is O(1) per event, so the hot paths stay hot.
struct RuntimeMetrics {
    registry: Registry,
    /// µs from an interval's multicast to its local application.
    apply_delay_us: Histogram,
    /// Encryptions per `Forward` copy received (split payload sizes).
    split_payload: Histogram,
    /// Copies sent per forwarding occasion (server seeds and member
    /// forward duties alike).
    forward_fanout: Histogram,
    /// Encryptions per unicast `Recover` reply.
    recovery_size: Histogram,
}

impl RuntimeMetrics {
    fn new() -> RuntimeMetrics {
        let registry = Registry::new();
        RuntimeMetrics {
            apply_delay_us: registry.histogram("apply_delay_us"),
            split_payload: registry.histogram("split_payload"),
            forward_fanout: registry.histogram("forward_fanout"),
            recovery_size: registry.histogram("recovery_size"),
            registry,
        }
    }
}

/// Shared state of the classic single-queue runtime.
struct Shared {
    knobs: Knobs,
    /// Set by [`GroupRuntime::finish`]: timers stop re-arming so the
    /// event queue drains with all repairs and recoveries completed;
    /// retries fire immediately instead of waiting for a tick.
    shutdown: Cell<bool>,
    metrics: RuntimeMetrics,
}

impl SharedHandle for Rc<Shared> {
    fn knobs(&self) -> &Knobs {
        &self.knobs
    }
    fn is_shutdown(&self) -> bool {
        self.shutdown.get()
    }
    fn record_split_payload(&self, v: u64) {
        self.metrics.split_payload.record(v);
    }
    fn record_forward_fanout(&self, v: u64) {
        self.metrics.forward_fanout.record(v);
    }
    fn record_apply(&self, span: &'static str, sent_at: SimTime, now: SimTime, interval: u64) {
        self.metrics
            .apply_delay_us
            .record(now.saturating_sub(sent_at));
        self.metrics.registry.span(span, sent_at, now, interval);
    }
    fn record_recovery_size(&self, v: u64) {
        self.metrics.recovery_size.record(v);
    }
    fn span(&self, name: &'static str, start: SimTime, end: SimTime, detail: u64) {
        self.metrics.registry.span(name, start, end, detail);
    }
}

/// The deterministic sim driver's output boundary: `Ctx` already *is*
/// an outbox over `Outgoing`, so delegation is 1:1 and the scheduled
/// event sequence is bit-for-bit what the pre-split runtime produced.
impl Outputs for Ctx<'_, RtMsg> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    fn self_id(&self) -> NodeId {
        Ctx::self_id(self)
    }
    fn send(&mut self, to: NodeId, msg: RtMsg) {
        Ctx::send(self, to, msg);
    }
    fn timer(&mut self, delay: SimTime, msg: RtMsg) {
        let me = Ctx::self_id(self);
        Ctx::send_after(self, me, delay, msg);
    }
}

/// A protocol participant of the runtime: the server or a member.
pub struct RtActor<NET>(ActorKind<NET>);

enum ActorKind<NET> {
    Server(Box<RtServer<NET, Rc<Shared>>>),
    Member(Box<RtMember<Rc<Shared>>>),
}

impl<NET: Network> Node for RtActor<NET> {
    type Msg = RtMsg;

    fn receive(&mut self, ctx: &mut Ctx<'_, RtMsg>, from: NodeId, msg: RtMsg) {
        match &mut self.0 {
            ActorKind::Server(s) => s.receive(ctx, from, msg),
            ActorKind::Member(m) => m.receive(ctx, from, msg),
        }
    }
}

/// Aggregated outcome of a runtime session: counters, histogram
/// summaries, and the tracing-span tail, for reports and benches.
///
/// The counter fields are integers and the histogram/span types are
/// `Eq`, so two snapshots from identically seeded runs can be compared
/// wholesale in determinism tests; [`MetricsSnapshot::to_json`] renders
/// the same data as a byte-stable JSON document for bench artifacts.
///
/// The struct is `#[non_exhaustive]`: obtain one via
/// [`GroupRuntime::snapshot`] and read the fields you need — new series
/// may appear in later versions without breaking callers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct MetricsSnapshot {
    /// Completed rekey intervals.
    pub intervals: u64,
    /// Members in the group at the end.
    pub members: usize,
    /// Joins admitted by the server.
    pub joins: u64,
    /// Departures processed by the server.
    pub departures: u64,
    /// Departures that were detected by heartbeats (crashes).
    pub failures_detected: u64,
    /// `Forward` copies sent (server seeds + member forwards).
    pub forward_copies: u64,
    /// Copies dropped by the loss model (legacy i.i.d., fault-plan loss,
    /// and partition cuts).
    pub copies_lost: u64,
    /// Deliveries absorbed by crashed nodes.
    pub dead_letters: u64,
    /// Deliveries suppressed by outage windows (node temporarily down).
    pub suppressed: u64,
    /// NACKs received by the server.
    pub nacks: u64,
    /// Encryptions re-sent via unicast recovery.
    pub recovery_encryptions: u64,
    /// Heartbeat pings sent by members.
    pub pings: u64,
    /// Neighbor evictions after unanswered pings.
    pub evictions: u64,
    /// Control retransmissions by members (join/leave/NACK/resync).
    pub retransmissions: u64,
    /// Highest retry attempt count any member reached (≤ the cap).
    pub max_retry_attempts: u32,
    /// Full state snapshots the server served.
    pub resyncs: u64,
    /// Members that rejoined after being disowned.
    pub rejoins: u64,
    /// Evicted neighbors reinstated after answering a probation probe.
    pub rehabilitations: u64,
    /// Server restarts (journal restores).
    pub restarts: u64,
    /// Checkpoints written to the crash journal.
    pub checkpoints: u64,
    /// Total messages delivered.
    pub delivered: u64,
    /// Welcome packets issued by the server.
    pub welcomes: u64,
    /// Leave acknowledgements sent (each after a covering checkpoint).
    pub leave_acks: u64,
    /// Key-wrap encryptions produced by the key tree's batch rekeys.
    pub tree_encryptions: u64,
    /// Retired key versions resumed past a tombstone during rekeying.
    pub tombstone_hits: u64,
    /// Messages cut by fault-plan partitions (0 without a plan).
    pub partition_cuts: u64,
    /// `Forward` copies dropped by fault-plan loss (0 without a plan;
    /// excludes the legacy i.i.d. `loss` stream).
    pub fault_loss_drops: u64,
    /// Elections started by follower replicas (0 with one replica).
    pub elections: u64,
    /// Followers promoted to primary (0 with one replica).
    pub promotions: u64,
    /// Mutations lost to restarts/promotions (ops past the recovered
    /// watermark; the affected members re-request).
    pub lost_mutations: u64,
    /// Peak replication lag (entries) any primary observed at a tick.
    pub repl_lag_peak: u64,
    /// Peak in-flight event count inside the simulator.
    pub peak_queue_depth: usize,
    /// µs from each interval's multicast to its local application.
    pub apply_delay_us: HistogramSnapshot,
    /// Membership mutations folded into each batch rekey.
    pub batch_size: HistogramSnapshot,
    /// Encryptions carried per split `Forward` copy received.
    pub split_payload: HistogramSnapshot,
    /// Copies sent per forwarding step (server seeds + member duty).
    pub forward_fanout: HistogramSnapshot,
    /// Encryptions per unicast recovery reply.
    pub recovery_size: HistogramSnapshot,
    /// Tail of the tracing-span ring (oldest spans drop first).
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the ring before this snapshot was taken.
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a deterministic JSON document:
    /// `{"counters": {...}, "histograms": {name: {count, sum, min, max,
    /// mean, p50, p95, p99}}, "spans_dropped": n, "spans": [...]}`.
    /// Identically seeded runs produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.begin_object();
        w.begin_named_object("counters");
        w.field_u64("intervals", self.intervals);
        w.field_usize("members", self.members);
        w.field_u64("joins", self.joins);
        w.field_u64("departures", self.departures);
        w.field_u64("failures_detected", self.failures_detected);
        w.field_u64("forward_copies", self.forward_copies);
        w.field_u64("copies_lost", self.copies_lost);
        w.field_u64("dead_letters", self.dead_letters);
        w.field_u64("suppressed", self.suppressed);
        w.field_u64("nacks", self.nacks);
        w.field_u64("recovery_encryptions", self.recovery_encryptions);
        w.field_u64("pings", self.pings);
        w.field_u64("evictions", self.evictions);
        w.field_u64("retransmissions", self.retransmissions);
        w.field_u64("max_retry_attempts", u64::from(self.max_retry_attempts));
        w.field_u64("resyncs", self.resyncs);
        w.field_u64("rejoins", self.rejoins);
        w.field_u64("rehabilitations", self.rehabilitations);
        w.field_u64("restarts", self.restarts);
        w.field_u64("checkpoints", self.checkpoints);
        w.field_u64("delivered", self.delivered);
        w.field_u64("welcomes", self.welcomes);
        w.field_u64("leave_acks", self.leave_acks);
        w.field_u64("tree_encryptions", self.tree_encryptions);
        w.field_u64("tombstone_hits", self.tombstone_hits);
        w.field_u64("partition_cuts", self.partition_cuts);
        w.field_u64("fault_loss_drops", self.fault_loss_drops);
        w.field_u64("elections", self.elections);
        w.field_u64("promotions", self.promotions);
        w.field_u64("lost_mutations", self.lost_mutations);
        w.field_u64("repl_lag_peak", self.repl_lag_peak);
        w.field_usize("peak_queue_depth", self.peak_queue_depth);
        w.end_object();
        w.begin_named_object("histograms");
        for (name, histogram) in [
            ("apply_delay_us", &self.apply_delay_us),
            ("batch_size", &self.batch_size),
            ("split_payload", &self.split_payload),
            ("forward_fanout", &self.forward_fanout),
            ("recovery_size", &self.recovery_size),
        ] {
            w.begin_named_object(name);
            histogram.write_fields(&mut w);
            w.end_object();
        }
        w.end_object();
        w.field_u64("spans_dropped", self.spans_dropped);
        w.begin_named_array("spans");
        for span in &self.spans {
            w.begin_object();
            w.field_str("name", span.name);
            w.field_u64("start", span.start);
            w.field_u64("end", span.end);
            w.field_u64("detail", span.detail);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

type DelayFn = Box<dyn FnMut(NodeId, NodeId) -> SimTime>;

/// One churn-and-advance surface over every execution engine of the
/// sans-I/O protocol core ([`runtime::core`](self)).
///
/// The core's state machines know nothing about clocks or wires; a
/// *driver* binds their `(destination, payload, deadline)` outputs to an
/// execution substrate. Three drivers exist:
///
/// * [`GroupRuntime`] — one virtual clock, one global event queue
///   (deterministic, fault-injectable);
/// * [`ShardedGroupRuntime`] — windowed shards on worker threads, still
///   byte-deterministic (the million-member engine);
/// * [`socket::UdpGroupDriver`] — real loopback UDP datagrams and the
///   wall clock (not reproducible, but *equivalent*: the
///   `socket_equivalence` integration test pins identical final key
///   trees for identical churn).
///
/// The trait deliberately speaks in *rekey intervals*, not clock units,
/// because interval numbering is the one notion of progress all three
/// substrates share. Time-based APIs (traces at microsecond offsets,
/// fault plans) remain on the concrete types.
pub trait Driver {
    /// The authoritative server state machine (and through it the
    /// membership oracle and key tree).
    fn server_fsm(&self) -> &GroupServer;

    /// Handles dealt so far, departed members included; handles are
    /// `0..member_count()`.
    fn member_count(&self) -> usize;

    /// Member `handle`'s key agent, where the driver can show it:
    /// `None` before admission, after departure — and, on the socket
    /// driver, until [`Driver::finish_run`] collects the members from
    /// their worker threads.
    fn agent_of(&self, handle: usize) -> Option<&UserAgent>;

    /// Requests a voluntary leave of member `handle`, effective as the
    /// driver processes it.
    fn leave(&mut self, handle: usize);

    /// Advances the session until the server has completed rekey
    /// interval `target` and every live member has applied it. Returns
    /// `false` if the driver gave up (timeout on the socket driver, an
    /// idle simulation otherwise).
    fn run_to_interval(&mut self, target: u64) -> bool;

    /// Shuts the session down: timers stop, queues drain, and the
    /// server's flush rounds fold any pending membership work into a
    /// final interval. Returns `false` if the flush failed to converge.
    fn finish_run(&mut self) -> bool;

    /// Verifies K-consistency of every live member's local table against
    /// the authoritative membership (call after [`Driver::finish_run`]).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    fn verify_consistency(&self) -> Result<(), ConsistencyViolation>;

    /// Aggregated session metrics.
    fn metrics(&self) -> MetricsSnapshot;
}

/// The event-driven group runtime: see the module docs.
///
/// Join handles are join-trace indices: the `k`-th [`ChurnOp::Join`] gets
/// handle `k` and runs on `HostId(k)`; the server runs on the substrate's
/// last host.
pub struct GroupRuntime<NET: Network + 'static> {
    sim: Simulation<RtActor<NET>, DelayFn>,
    shared: Rc<Shared>,
    loss: f64,
    joins: usize,
    server_host: HostId,
    /// The chaos injector, kept so [`GroupRuntime::snapshot`] can read
    /// its fault counters after the run.
    faults: Option<Rc<RefCell<FaultInjector>>>,
}

impl<NET: Network + 'static> GroupRuntime<NET> {
    /// Builds a runtime over `net` with the server on the last host.
    ///
    /// `config` is valid by construction ([`RuntimeConfigBuilder::build`]
    /// holds the validation), so this never panics on configuration.
    /// Debug builds warn when `nack_grace` does not cover a worst-case
    /// server round trip, which makes spurious NACKs likely.
    pub fn new(group: GroupConfig, config: RuntimeConfig, net: NET) -> GroupRuntime<NET> {
        let net = Rc::new(net);
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
        let shared = Rc::new(Shared {
            knobs: Knobs::of_config(&config),
            shutdown: Cell::new(false),
            metrics: RuntimeMetrics::new(),
        });
        // Replica 0 is the initial primary; further replicas build the
        // *same* seeded state machine (deterministic replication replays
        // ops, so identical seeds keep the RNG streams aligned) but only
        // the primary instruments the tree — one metrics stream per group.
        let replicas = config.replicas;
        let mut servers = Vec::with_capacity(replicas);
        for replica in 0..replicas {
            let mut server_fsm = group.clone().build(server_host);
            if replica == 0 {
                server_fsm.instrument_tree(TreeMetrics::in_registry(&shared.metrics.registry));
            }
            servers.push(RtActor(ActorKind::Server(Box::new(RtServer {
                net: Rc::clone(&net),
                shared: Rc::clone(&shared),
                server: server_fsm,
                epoch: 0,
                seq: 0,
                tick_gen: 0,
                next_interval_at: config.rekey_period,
                last_round_at: 0,
                history: BTreeMap::new(),
                split_index: SplitIndexMaintainer::default(),
                journal: journal::Journal::new(),
                pending_leave_acks: Vec::new(),
                repl: Replication::new(replica, replicas),
                stats: ServerStats::default(),
            }))));
        }
        let delay_net = Rc::clone(&net);
        let delay: DelayFn = Box::new(move |a, b| {
            let host = |n: NodeId| {
                if n.0 < replicas {
                    server_host
                } else {
                    HostId(n.0 - replicas)
                }
            };
            delay_net.one_way(host(a), host(b)).max(1)
        });
        let mut sim = Simulation::new(servers, delay);
        if config.loss > 0.0 {
            let mut rng = seeded_rng(config.seed ^ 0x4C4F_5353_u64);
            let loss = config.loss;
            sim.set_loss(move |_, _, _, msg: &RtMsg| {
                matches!(msg, RtMsg::Forward { .. }) && rng.gen_bool(loss)
            });
        }
        sim.inject_at(
            config.rekey_period,
            SERVER,
            SERVER,
            RtMsg::IntervalTick { gen: 0 },
        );
        if replicas > 1 {
            // Prime the replication machinery: the primary's stream tick,
            // and each follower's liveness check — staggered by replica
            // index so elections never fire in lockstep.
            let knobs = Knobs::of_config(&config);
            sim.inject_at(
                knobs.repl_period(),
                SERVER,
                SERVER,
                RtMsg::ReplTick { gen: 0 },
            );
            for replica in 1..replicas {
                let node = NodeId(replica);
                sim.inject_at(
                    config.rekey_period + replica as u64 * config.retry_base,
                    node,
                    node,
                    RtMsg::ReplCheck { gen: 0 },
                );
            }
        }
        GroupRuntime {
            sim,
            shared,
            loss: config.loss,
            joins: 0,
            server_host,
            faults: None,
        }
    }

    /// Wires a chaos [`FaultPlan`] into the runtime: partitions cut every
    /// message across cells, i.i.d./burst loss thins `Forward` copies (on
    /// top of the legacy `config.loss` draw, whose stream is unchanged),
    /// jitter delays and reorders network sends, and each outage window
    /// silences its node and ends with a `Restart` event at the window's
    /// close. Call before [`GroupRuntime::run_trace`]; the injector is
    /// seeded from `config.seed`, so a fixed seed and plan reproduce the
    /// run bit for bit.
    pub fn with_faults(mut self, plan: FaultPlan) -> GroupRuntime<NET> {
        let inj = Rc::new(RefCell::new(
            plan.injector(self.shared.knobs().seed ^ CHAOS_SEED),
        ));
        let loss = self.loss;
        let mut rng = seeded_rng(self.shared.knobs().seed ^ 0x4C4F_5353_u64);
        let drop_inj = Rc::clone(&inj);
        self.sim.set_loss(move |now, from, to, msg: &RtMsg| {
            let mut inj = drop_inj.borrow_mut();
            if inj.cut(now, from, to) {
                return true;
            }
            if !matches!(msg, RtMsg::Forward { .. }) {
                return false;
            }
            // `|` (not `||`): both streams must advance on every copy for
            // the draws to stay aligned across runs.
            (loss > 0.0 && rng.gen_bool(loss)) | inj.lose(from)
        });
        if plan.jitter_max() > 0 {
            let jitter_inj = Rc::clone(&inj);
            self.sim.set_jitter(move |_, from, to, _msg: &RtMsg| {
                jitter_inj.borrow_mut().extra_delay(from, to)
            });
        }
        let down_inj = Rc::clone(&inj);
        self.sim
            .set_downtime(move |now, node| down_inj.borrow_mut().is_down(now, node));
        for outage in plan.outages() {
            self.sim
                .inject_at(outage.until, outage.node, outage.node, RtMsg::Restart);
        }
        self.faults = Some(inj);
        self
    }

    /// Plays a churn trace: advances the clock to each event's time and
    /// applies it. Events are processed in time order (stable for ties).
    /// Returns the handles assigned to the trace's joins.
    ///
    /// # Panics
    ///
    /// Panics if an event refers to a handle that has not joined, lies in
    /// the past, or the substrate runs out of hosts.
    pub fn run_trace(&mut self, events: &[ChurnEvent]) -> Vec<usize> {
        let mut ordered: Vec<&ChurnEvent> = events.iter().collect();
        ordered.sort_by_key(|e| e.at);
        let mut handles = Vec::new();
        for event in ordered {
            self.sim.run_until(event.at);
            match event.op {
                ChurnOp::Join => {
                    assert!(
                        self.joins < self.server_host.0,
                        "substrate has no free host for another join"
                    );
                    let node = self
                        .sim
                        .spawn(RtActor(ActorKind::Member(Box::new(RtMember::new(
                            Rc::clone(&self.shared),
                        )))));
                    handles.push(self.joins);
                    self.joins += 1;
                    debug_assert_eq!(node.0, self.joins - 1 + self.replicas());
                    self.sim.inject_at(event.at, node, node, RtMsg::JoinRequest);
                }
                ChurnOp::Leave(member) => {
                    let node = self.member_node(member);
                    self.sim
                        .inject_at(event.at, node, node, RtMsg::LeaveRequest);
                }
                ChurnOp::Crash(member) => {
                    let node = self.member_node(member);
                    self.sim.kill(node);
                }
            }
        }
        handles
    }

    /// Runs the clock to `until`, then shuts timers down and drains the
    /// event queue — in-flight repairs, recoveries, and detections all
    /// complete. After the drain the server runs *flush rounds*: each
    /// folds any pending membership work into a final interval and pushes
    /// every member its latest related set, so the last interval is
    /// discoverable even when every multicast copy of it was lost; rounds
    /// repeat until no membership work or leave ack is outstanding.
    /// Returns the final simulated time.
    ///
    /// # Panics
    ///
    /// Panics if the flush rounds fail to converge (e.g. a fault window
    /// extends past `until`, leaving the server unreachable forever).
    pub fn finish(&mut self, until: SimTime) -> SimTime {
        self.sim.run_until(until);
        self.shared.shutdown.set(true);
        self.sim.run_until_idle();
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds <= 64, "shutdown flush did not converge");
            let now = self.sim.now();
            let primary = NodeId(self.acting_primary());
            self.sim.inject_at(now, primary, primary, RtMsg::Flush);
            self.sim.run_until_idle();
            let server = self.server_ref();
            let (joins, leaves) = server.server.pending();
            if joins == 0 && leaves == 0 && server.pending_leave_acks.is_empty() {
                break;
            }
        }
        self.sim.now()
    }

    /// Advances the simulated clock to `until` without shutting down
    /// (finer-grained than [`GroupRuntime::run_trace`] /
    /// [`GroupRuntime::finish`] for callers that steer by state, not
    /// time).
    pub fn run_until(&mut self, until: SimTime) {
        self.sim.run_until(until);
    }

    /// Schedules member `handle`'s voluntary `LeaveRequest` at `at`
    /// (clamped to the present).
    ///
    /// # Panics
    ///
    /// Panics on a handle that never joined.
    pub fn leave_at(&mut self, at: SimTime, handle: usize) {
        let node = self.member_node(handle);
        let at = at.max(self.sim.now());
        self.sim.inject_at(at, node, node, RtMsg::LeaveRequest);
    }

    fn member_node(&self, handle: usize) -> NodeId {
        assert!(handle < self.joins, "member handle {handle} never joined");
        NodeId(handle + self.replicas())
    }

    fn replicas(&self) -> usize {
        self.shared.knobs().replicas
    }

    fn replica_ref(&self, replica: usize) -> &RtServer<NET, Rc<Shared>> {
        match &self.sim.nodes()[replica].0 {
            ActorKind::Server(s) => s.as_ref(),
            ActorKind::Member(_) => unreachable!("replica nodes precede member nodes"),
        }
    }

    /// The replica currently acting as primary: the active primary with
    /// the highest epoch (a just-stepped-down ex-primary is inactive, so
    /// split-brain windows resolve to the winner). Falls back to replica
    /// 0 when no replica is primary (mid-election).
    fn acting_primary(&self) -> usize {
        let mut best: Option<(u64, usize)> = None;
        for replica in 0..self.replicas() {
            let server = self.replica_ref(replica);
            if server.repl.role == ReplRole::Primary
                && server.repl.active
                && best.is_none_or(|(epoch, _)| server.epoch > epoch)
            {
                best = Some((server.epoch, replica));
            }
        }
        best.map_or(0, |(_, replica)| replica)
    }

    fn server_ref(&self) -> &RtServer<NET, Rc<Shared>> {
        self.replica_ref(self.acting_primary())
    }

    fn member_ref(&self, handle: usize) -> &RtMember<Rc<Shared>> {
        match &self.sim.nodes()[self.member_node(handle).0].0 {
            ActorKind::Member(m) => m,
            ActorKind::Server(_) => unreachable!("member nodes start at 1"),
        }
    }

    /// The server-side facade state machine (and through it the oracle
    /// [`Group`] and the key tree).
    pub fn server(&self) -> &GroupServer {
        &self.server_ref().server
    }

    /// The oracle membership view.
    pub fn group(&self) -> &Group {
        self.server().group()
    }

    /// The server's crash journal.
    pub fn journal(&self) -> &journal::Journal {
        &self.server_ref().journal
    }

    /// The server's epoch (0 until the first restart).
    pub fn server_epoch(&self) -> u64 {
        self.server_ref().epoch
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Members spawned so far (handles are `0..member_count()`).
    pub fn member_count(&self) -> usize {
        self.joins
    }

    /// The key agent of join-handle `member`, once welcomed.
    pub fn agent(&self, member: usize) -> Option<&UserAgent> {
        self.member_ref(member).agent.as_ref()
    }

    /// The local neighbor table of join-handle `member`, while active.
    pub fn member_table(&self, member: usize) -> Option<&NeighborTable> {
        self.member_ref(member).table.as_ref()
    }

    /// The member record of join-handle `member`, once admitted.
    pub fn member_record(&self, member: usize) -> Option<&Member> {
        self.member_ref(member).member.as_ref()
    }

    /// Per-member counters.
    pub fn member_stats(&self, member: usize) -> MemberStats {
        self.member_ref(member).stats
    }

    /// `false` once the member's node has been crashed.
    pub fn is_member_alive(&self, member: usize) -> bool {
        self.sim.is_alive(self.member_node(member))
    }

    /// Server-side counters (the acting primary's; `snapshot()` reports
    /// the whole replica set's sum).
    pub fn server_stats(&self) -> ServerStats {
        self.server_ref().stats
    }

    /// Server-side counters summed over every replica. Followers mutate
    /// no member-facing counters, so with one replica (or none ever
    /// promoted) this equals the primary's stats; after a failover it
    /// stitches the old and new primaries' tallies into one session view.
    fn summed_server_stats(&self) -> ServerStats {
        let mut sum = ServerStats::default();
        for replica in 0..self.replicas() {
            let s = self.replica_ref(replica).stats;
            sum.intervals += s.intervals;
            sum.joins += s.joins;
            sum.departures += s.departures;
            sum.failures_detected += s.failures_detected;
            sum.forward_copies += s.forward_copies;
            sum.nacks += s.nacks;
            sum.recovery_encryptions += s.recovery_encryptions;
            sum.welcomes += s.welcomes;
            sum.resyncs += s.resyncs;
            sum.restarts += s.restarts;
            sum.checkpoints += s.checkpoints;
            sum.leave_acks += s.leave_acks;
            sum.elections += s.elections;
            sum.promotions += s.promotions;
            sum.lost_mutations += s.lost_mutations;
            sum.repl_lag_peak = sum.repl_lag_peak.max(s.repl_lag_peak);
        }
        sum
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
        let group = self.group();
        let members: Vec<Member> = group.members().to_vec();
        let tables: Vec<NeighborTable> = members
            .iter()
            .map(|m| {
                let node = NodeId(m.host.0 + self.replicas());
                match &self.sim.nodes()[node.0].0 {
                    ActorKind::Member(member) => {
                        member.table.clone().expect("admitted member holds a table")
                    }
                    ActorKind::Server(_) => unreachable!("member hosts map to member nodes"),
                }
            })
            .collect();
        check_consistency(group.spec(), &members, &tables, group.k())
    }

    /// The metrics registry shared by the server, members, and key tree.
    /// Use it to attach extra series before a run or to read raw
    /// histograms; [`GroupRuntime::snapshot`] is the aggregated view.
    pub fn registry(&self) -> &Registry {
        &self.shared.metrics.registry
    }

    /// Aggregates the session's counters, histograms, and spans.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let server = self.summed_server_stats();
        let metrics = &self.shared.metrics;
        let registry = metrics.registry.snapshot();
        let counter = |name: &str| registry.counters.get(name).copied().unwrap_or(0);
        let fault_stats = self
            .faults
            .as_ref()
            .map(|inj| inj.borrow().stats())
            .unwrap_or_default();
        let mut snapshot = MetricsSnapshot {
            intervals: server.intervals,
            members: self.group().len(),
            joins: server.joins,
            departures: server.departures,
            failures_detected: server.failures_detected,
            forward_copies: server.forward_copies,
            copies_lost: self.sim.dropped(),
            dead_letters: self.sim.dead_letters(),
            suppressed: self.sim.suppressed(),
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
            delivered: self.sim.delivered(),
            welcomes: server.welcomes,
            leave_acks: server.leave_acks,
            tree_encryptions: counter("tree_encryptions"),
            tombstone_hits: counter("tree_tombstone_hits"),
            partition_cuts: fault_stats.partition_cuts,
            fault_loss_drops: fault_stats.loss_drops,
            elections: server.elections,
            promotions: server.promotions,
            lost_mutations: server.lost_mutations,
            repl_lag_peak: server.repl_lag_peak,
            peak_queue_depth: self.sim.peak_pending(),
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
        for handle in 0..self.joins {
            let stats = self.member_stats(handle);
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

impl<NET: Network + 'static> Driver for GroupRuntime<NET> {
    fn server_fsm(&self) -> &GroupServer {
        self.server()
    }

    fn member_count(&self) -> usize {
        self.joins
    }

    fn agent_of(&self, handle: usize) -> Option<&UserAgent> {
        self.agent(handle)
    }

    fn leave(&mut self, handle: usize) {
        let now = self.sim.now();
        self.leave_at(now, handle);
    }

    fn run_to_interval(&mut self, target: u64) -> bool {
        let period = self.shared.knobs().rekey_period.max(4);
        for _ in 0..100_000 {
            let reached = self.server().interval() >= target
                && (0..self.joins).all(|handle| {
                    let member = self.member_ref(handle);
                    member.departed
                        || !self.is_member_alive(handle)
                        || member
                            .agent
                            .as_ref()
                            .is_some_and(|a| a.interval() >= target)
                });
            if reached {
                return true;
            }
            let until = self.sim.now() + period / 4;
            self.sim.run_until(until);
        }
        false
    }

    fn finish_run(&mut self) -> bool {
        let now = self.sim.now();
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

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_id::IdSpec;
    use rekey_net::{MatrixNetwork, PlanetLabParams};
    use rekey_sim::GilbertElliott;

    const SEC: SimTime = 1_000_000;

    fn small_net(seed: u64) -> MatrixNetwork {
        let mut rng = seeded_rng(seed);
        MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng)
    }

    fn config() -> GroupConfig {
        GroupConfig::for_spec(&IdSpec::new(3, 8).unwrap())
            .k(2)
            .seed(7)
    }

    /// Every surviving member's agent is at the server's interval with the
    /// server's group key, and can open data sealed under it.
    fn assert_members_current(rt: &GroupRuntime<MatrixNetwork>, survivors: &[usize]) {
        let server_interval = rt.server().interval();
        let group_key = rt
            .server()
            .tree()
            .group_key()
            .expect("group is non-empty")
            .clone();
        let mut rng = seeded_rng(0xDA7A);
        for &m in survivors {
            let agent = rt.agent(m).expect("survivor was welcomed");
            assert_eq!(
                agent.interval(),
                server_interval,
                "member {m} lags the server"
            );
            assert_eq!(
                agent.group_key(),
                Some(&group_key),
                "member {m} holds a stale group key"
            );
            let sealed = agent.seal_data(b"pay-per-view frame", &mut rng).unwrap();
            assert_eq!(agent.open_data(&sealed).unwrap(), b"pay-per-view frame");
        }
        rt.check_consistency()
            .expect("local tables are K-consistent");
    }

    #[test]
    fn joins_then_steady_state_keeps_every_member_current() {
        let mut rt = GroupRuntime::new(config(), RuntimeConfig::default(), small_net(1));
        let trace: Vec<ChurnEvent> = (0..10)
            .map(|i| ChurnEvent::join(SEC + i * 200_000))
            .collect();
        let handles = rt.run_trace(&trace);
        assert_eq!(handles, (0..10).collect::<Vec<_>>());
        rt.finish(61 * SEC);
        let report = rt.snapshot();
        assert_eq!(report.joins, 10);
        assert!(report.intervals >= 6, "got {} intervals", report.intervals);
        assert_eq!(rt.group().len(), 10);
        assert_members_current(&rt, &handles);
        // Steady state is quiet: no NACKs, no evictions, no resyncs, no
        // retransmissions on a lossless run.
        assert_eq!(report.nacks, 0);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.resyncs, 0);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.restarts, 0);
        assert!(report.pings > 0, "heartbeats ran");
        assert!(
            report.checkpoints >= report.intervals,
            "every interval checkpoints"
        );
    }

    #[test]
    fn voluntary_leaves_repair_every_surviving_table() {
        let mut rt = GroupRuntime::new(config(), RuntimeConfig::default(), small_net(2));
        let mut trace: Vec<ChurnEvent> = (0..12)
            .map(|i| ChurnEvent::join(SEC + i * 200_000))
            .collect();
        trace.push(ChurnEvent::leave(25 * SEC, 3));
        trace.push(ChurnEvent::leave(32 * SEC, 7));
        rt.run_trace(&trace);
        rt.finish(75 * SEC);
        assert_eq!(rt.group().len(), 10);
        let report = rt.snapshot();
        assert_eq!(report.departures, 2);
        assert_eq!(report.failures_detected, 0);
        let survivors: Vec<usize> = (0..12).filter(|m| *m != 3 && *m != 7).collect();
        assert_members_current(&rt, &survivors);
        // The departed members retired their local protocol state.
        assert!(rt.agent(3).is_none());
        assert!(rt.member_table(7).is_none());
    }

    #[test]
    fn forward_loss_is_recovered_by_nack_unicast() {
        let runtime_config = RuntimeConfig::builder().loss(0.3).seed(0xBEEF).build();
        let mut rt = GroupRuntime::new(config(), runtime_config, small_net(3));
        let trace: Vec<ChurnEvent> = (0..10)
            .map(|i| ChurnEvent::join(SEC + i * 200_000))
            .collect();
        // Churn in the middle so rekey messages are non-trivial throughout.
        let mut trace = trace;
        trace.push(ChurnEvent::leave(35 * SEC, 2));
        trace.push(ChurnEvent::join(45 * SEC));
        rt.run_trace(&trace);
        rt.finish(101 * SEC);
        let report = rt.snapshot();
        assert!(report.copies_lost > 0, "loss model never fired");
        assert!(report.nacks > 0, "lost copies were never NACKed");
        assert!(
            report.max_retry_attempts <= RuntimeConfig::default().retry_cap(),
            "retry counter escaped its cap"
        );
        let survivors: Vec<usize> = (0..11).filter(|m| *m != 2).collect();
        assert_members_current(&rt, &survivors);
    }

    #[test]
    fn crashes_are_detected_evicted_and_repaired() {
        let mut rt = GroupRuntime::new(config(), RuntimeConfig::default(), small_net(4));
        let mut trace: Vec<ChurnEvent> = (0..10)
            .map(|i| ChurnEvent::join(SEC + i * 200_000))
            .collect();
        trace.push(ChurnEvent::crash(31 * SEC, 4));
        trace.push(ChurnEvent::crash(31 * SEC, 8));
        rt.run_trace(&trace);
        // Detection needs up to two heartbeat periods plus repair traffic.
        rt.finish(121 * SEC);
        let report = rt.snapshot();
        assert_eq!(report.failures_detected, 2);
        assert_eq!(report.departures, 2);
        assert!(report.evictions > 0);
        assert!(report.dead_letters > 0, "crashed nodes absorbed traffic");
        assert_eq!(rt.group().len(), 8);
        assert!(!rt.is_member_alive(4));
        let survivors: Vec<usize> = (0..10).filter(|m| *m != 4 && *m != 8).collect();
        assert_members_current(&rt, &survivors);
    }

    /// The server dies mid-run (its rekey tick is swallowed by the outage
    /// window) and respawns from its crash journal: the epoch bumps, every
    /// member resyncs, and the group ends the run current and consistent.
    #[test]
    fn server_restart_resumes_from_journal() {
        let mut rt = GroupRuntime::new(config(), RuntimeConfig::default(), small_net(7))
            .with_faults(FaultPlan::new().outage(SERVER, 24 * SEC, 38 * SEC));
        let trace: Vec<ChurnEvent> = (0..10)
            .map(|i| ChurnEvent::join(SEC + i * 200_000))
            .collect();
        let handles = rt.run_trace(&trace);
        rt.finish(90 * SEC);
        let report = rt.snapshot();
        assert_eq!(report.restarts, 1);
        assert_eq!(rt.server_epoch(), 1);
        assert!(report.suppressed > 0, "the outage swallowed deliveries");
        assert!(
            report.resyncs >= 10,
            "every member resyncs across the epoch bump (got {})",
            report.resyncs
        );
        assert!(rt.journal().recorded() > 0);
        assert_eq!(rt.group().len(), 10);
        assert_members_current(&rt, &handles);
    }

    /// Two members are cut off by a partition long enough to be wrongfully
    /// departed; after the heal the server disowns them (`NotMember`) and
    /// they rejoin from scratch, converging with everyone else.
    #[test]
    fn partition_wrongful_departs_heal_by_rejoin() {
        let mut rt =
            GroupRuntime::new(config(), RuntimeConfig::default(), small_net(8)).with_faults(
                FaultPlan::new().partition(vec![vec![NodeId(1), NodeId(2)]], 20 * SEC, 56 * SEC),
            );
        let trace: Vec<ChurnEvent> = (0..8)
            .map(|i| ChurnEvent::join(SEC + i * 200_000))
            .collect();
        let handles = rt.run_trace(&trace);
        rt.finish(150 * SEC);
        let report = rt.snapshot();
        assert_eq!(
            report.failures_detected, 2,
            "both isolated members are wrongfully departed"
        );
        assert_eq!(report.rejoins, 2, "both rejoin after the heal");
        assert!(report.evictions >= 2);
        assert!(report.copies_lost > 0, "the partition cut traffic");
        assert_eq!(rt.group().len(), 8);
        assert_members_current(&rt, &handles);
    }

    /// A joiner behind a partition retransmits its join with exponential
    /// backoff until the network heals, and its attempt counter never
    /// escapes the configured cap.
    #[test]
    fn join_behind_partition_retries_until_admitted() {
        let cfg = RuntimeConfig::default();
        let mut rt = GroupRuntime::new(config(), cfg, small_net(9))
            .with_faults(FaultPlan::new().partition(vec![vec![NodeId(1)]], 500_000, 20 * SEC));
        let mut trace = vec![ChurnEvent::join(SEC)];
        trace.extend((0..4).map(|i| ChurnEvent::join(22 * SEC + i * 200_000)));
        let handles = rt.run_trace(&trace);
        rt.finish(70 * SEC);
        let report = rt.snapshot();
        assert_eq!(report.joins, 5, "the blocked join eventually lands");
        assert!(
            report.retransmissions >= 4,
            "the blocked joiner kept retrying (got {})",
            report.retransmissions
        );
        assert!(report.max_retry_attempts <= cfg.retry_cap());
        let stats = rt.member_stats(0);
        assert!(stats.retransmissions >= 4);
        assert_eq!(rt.group().len(), 5);
        assert_members_current(&rt, &handles);
    }

    #[test]
    fn identical_seeds_reproduce_the_run_exactly() {
        let run = |loss_seed: u64| {
            let runtime_config = RuntimeConfig::builder().loss(0.2).seed(loss_seed).build();
            let plan = FaultPlan::new()
                .jitter(30_000)
                .burst_loss(GilbertElliott::moderate());
            let mut rt =
                GroupRuntime::new(config(), runtime_config, small_net(5)).with_faults(plan);
            let trace: Vec<ChurnEvent> = (0..9)
                .map(|i| ChurnEvent::join(SEC + i * 300_000))
                .chain([
                    ChurnEvent::leave(33 * SEC, 1),
                    ChurnEvent::crash(37 * SEC, 5),
                ])
                .collect();
            rt.run_trace(&trace);
            rt.finish(90 * SEC);
            (rt.snapshot(), rt.server().tree().group_key().cloned())
        };
        assert_eq!(run(11), run(11), "same seed must reproduce exactly");
        let (report_a, _) = run(11);
        let (report_b, _) = run(12);
        assert!(report_a.copies_lost > 0 && report_b.copies_lost > 0);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_out_of_range_loss() {
        let _ = RuntimeConfig::builder().loss(1.5).build();
    }

    #[test]
    #[should_panic(expected = "rekey period must be positive")]
    fn rejects_zero_rekey_period() {
        let _ = RuntimeConfig::builder().rekey_period(0).build();
    }

    #[test]
    #[should_panic(expected = "nack grace must be positive")]
    fn rejects_zero_nack_grace() {
        let _ = RuntimeConfig::builder().nack_grace(0).build();
    }

    /// Two identically seeded runs yield byte-identical snapshot JSON —
    /// the whole observability surface (counters, histogram summaries,
    /// span tail) is deterministic, not just the counter totals.
    #[test]
    fn identical_seeds_reproduce_snapshot_json() {
        let run = || {
            let runtime_config = RuntimeConfig::builder().loss(0.15).seed(0x0B5E).build();
            let mut rt = GroupRuntime::new(config(), runtime_config, small_net(10));
            let trace: Vec<ChurnEvent> = (0..8)
                .map(|i| ChurnEvent::join(SEC + i * 250_000))
                .chain([ChurnEvent::leave(21 * SEC, 2)])
                .collect();
            rt.run_trace(&trace);
            rt.finish(45 * SEC);
            rt.snapshot().to_json()
        };
        let json = run();
        assert_eq!(json, run(), "snapshot JSON must be byte-identical");
        // The document carries real histogram and span data, not zeros.
        let snapshot_has = |key: &str| rekey_metrics::json::has_key(&json, key);
        assert!(snapshot_has("apply_delay_us"));
        assert!(snapshot_has("tree_encryptions"));
        assert!(
            json.contains("\"name\": \"interval\""),
            "interval spans present"
        );
        assert!(json.contains("\"name\": \"apply\""), "apply spans present");
    }
}

#[cfg(test)]
mod review_repro {
    use super::*;
    use rekey_id::IdSpec;
    use rekey_net::{MatrixNetwork, PlanetLabParams};

    const SEC: SimTime = 1_000_000;

    #[test]
    fn mid_interval_joiner_outage_resync() {
        let mut rng = seeded_rng(0xBEEF);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let group = GroupConfig::for_spec(&IdSpec::new(3, 8).unwrap())
            .k(2)
            .seed(3);
        // Member handle 4 joins at t=4.2s (mid first interval, ends at 10s)
        // and its node goes down for [5s, 7s): on Restart it arms a Resync
        // that fires before its Welcome exists in the tree.
        let mut rt = GroupRuntime::new(group, RuntimeConfig::default(), net)
            .with_faults(FaultPlan::new().outage(NodeId(5), 5 * SEC, 7 * SEC));
        let trace: Vec<ChurnEvent> = (0..5)
            .map(|i| ChurnEvent::join(SEC + i * 800_000))
            .collect();
        rt.run_trace(&trace);
        rt.finish(40 * SEC);
    }
}
