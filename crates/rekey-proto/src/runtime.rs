//! The event-driven group runtime: one long-lived simulation in which the
//! key server and every member are nodes on a single simulated clock.
//!
//! The synchronous [`GroupServer`](crate::GroupServer)/
//! [`UserAgent`](crate::UserAgent) facade executes the protocol one
//! interval at a time with the caller as the clock; this module drives the
//! *same* state machines from a discrete-event schedule, which is what the
//! paper's own evaluation does (§4): "we simulate the sending and the
//! reception of a message as events". One implementation, two drivers —
//! and one table algorithm: the global-knowledge [`Group`] inside the
//! server computes every neighbor table, and members hold the copies it
//! pushes them.
//!
//! There is one simulated executor, [`ShardedGroupRuntime`] (module
//! `shard`): it alone decides who orders simulated events. Built empty
//! with [`ShardedGroupRuntime::new`] it is a sequential event loop that
//! admits joiners from a [`ChurnEvent`] trace; built populated with
//! [`ShardedGroupRuntime::bootstrapped`] it spreads a dealt group over
//! worker threads. Joins, crashes, fault plans, server replicas,
//! heartbeats and checkpoints work the same either way.
//! [`UdpGroupDriver`] (module [`socket`]) runs the same state machines
//! over real sockets and the wall clock.
//!
//! The two drivers are two types with no trait over them: each keeps
//! its own clock, queues and churn calls, and shares with the other
//! everything that is not about execution. A dealt member is built by
//! one core constructor from the dealt group; "has this member applied
//! interval `t`" and "is its membership view stale" are member methods
//! both poll; and both audit the members' tables with one function,
//! handing it their own way to reach a member.
//!
//! # Message taxonomy
//!
//! An [`RtMsg`] is what one node sends another, and all the
//! [`wire`] codec has a tag for. A node's own **timers** — the server's
//! interval tick (§1: "periodic batch rekeying"), each member's heartbeat
//! tick (§3.2), per-interval NACK deadline and retry tick, the replicas'
//! replication ticks — and its driver's **commands** (join, leave, flush,
//! restart) are not messages: they are a separate crate-private type that
//! is never encoded, so the network cannot deliver one. Timers are immune
//! to loss and jitter, and each carries a generation number so a restart
//! can cancel a stale chain. The messages:
//!
//! * **Membership control** (unicast, retransmitted until acknowledged):
//!   `JoinRequest` / `JoinAccepted` admit a member into the overlay
//!   mid-interval (its keys arrive in `Welcome` at the interval end);
//!   `LeaveRequest` / `LeaveAck` retire one — the ack is only sent after
//!   a checkpoint covers the departure, so an acknowledged leave can
//!   never roll back; `Table` carries the server-assisted repair of §3.2:
//!   the server's [`Group`] maintains every neighbor table,
//!   and after a join or leave each member whose table changed — only
//!   those — is sent its new table, stamped with the table's version (the
//!   group's mutation count when it last changed), so a member holds
//!   exactly the server's table and can tell a newer one from a stale one.
//! * **ID assignment** (§3.1, on the simulated driver): the server
//!   answers a `JoinRequest` into a non-empty group with a `JoinSeed`
//!   member record; the joiner sends that member and the users it names
//!   `Query`s (each answered by a `QueryReply` from the table the member
//!   holds), times `Ping`/`Pong` round trips to the users step 3 reads —
//!   a `Pong` carries the responder's access RTT, which the gateway
//!   estimate leaves out — and sends the digits it chose in `JoinDigits`,
//!   which the server completes to a unique ID and answers with
//!   `JoinAccepted`. The join retry re-sends only what is unanswered, and
//!   a member that stays silent through the retry cap counts as having
//!   nothing to say. The socket driver's server probes for the joiner with
//!   `Group::join` instead: over loopback a ping times nothing.
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
//!   unanswered ping evicts the record from the member's copy of its
//!   table ([`rekey_table::NeighborTable::remove`]),
//!   notifies the server (`FailureNotice`, re-sent each beat until a
//!   pushed table drops the suspect), and triggers the same repair as a
//!   leave. Evicted records stay on probation: a suspect that answers a
//!   later probe is reinstated, so a transient partition does not
//!   permanently shrink tables. Each beat also pings the *server*, which
//!   either vouches for the member (`ServerPong`, carrying the epoch, the
//!   version of the member's table, and the current interval — the
//!   member's evidence for NACKs and resyncs) or disowns it (`NotMember`,
//!   after which the member rejoins from scratch).
//!
//! # Failure model and self-healing
//!
//! A crashed member ([`ChurnOp::Crash`]) absorbs all traffic silently.
//! Only `Forward` copies are subject to the *loss
//! model* (the bulk rekey payload on a UDP-like path); control traffic is
//! reliable on a healthy network, matching the paper's assumption that
//! notifications and unicast recovery ride TCP. On top of that,
//! [`ShardedGroupRuntime::with_faults`] wires a
//! [`FaultPlan`](rekey_sim::FaultPlan) into the run:
//! partitions cut *all* traffic across cells, outages silence single
//! nodes (including the server) for a window, jitter reorders messages,
//! and i.i.d./burst loss thins the `Forward` stream. The protocol heals
//! from each of these without outside help:
//!
//! * a member behind a partition keeps retransmitting its join or leave
//!   with exponential backoff until the network heals;
//! * a member wrongfully evicted during a partition learns its fate from
//!   the server's `NotMember` and rejoins from scratch;
//! * a member that lost a `Table` push (a `Recover` or `ServerPong`
//!   reports a newer version of its table) or rekey intervals beyond the
//!   NACK retry cap resyncs from a server snapshot;
//! * the server checkpoints itself at every interval boundary, in the
//!   step that sends the interval's multicast; a restart (the driver's
//!   restart command at the outage window's end) restores the checkpoint,
//!   bumps the *epoch*, and re-announces itself with an immediate
//!   interval, and every member that observes the new epoch resyncs;
//! * with [`RuntimeConfigBuilder::replicas`] > 1 a follower replica replays the
//!   primary's mutation log, is elected when the primary falls silent,
//!   and takes over through the same epoch-bumped resync.
//!
//! Both drivers' `finish` is this protocol run to one convergence
//! condition, [`NotConverged`]: the acting primary has no membership work
//! queued and owes no leave ack, and every live member has applied its
//! interval and holds a current membership view. There is no shutdown
//! mode. Each `finish` round hands the acting primary a flush, which
//! pushes every member its latest related set and table version, and
//! then runs the session — timers, NACK backoff, the escalation to a
//! resync, heartbeats and replication included — for one NACK grace; a
//! member that is behind asks for what it lacks as it would at any other
//! time, and the server answers from its per-interval history.

use std::sync::Arc;

use rekey_metrics::{json, merge_spans, HistogramSnapshot, LocalHistogram, SpanLog, SpanRecord};
use rekey_net::HostId;
use rekey_sim::{NodeId, SimTime};
use rekey_table::{check_consistency, ConsistencyViolation, NeighborTable};

use crate::Group;

pub(crate) mod core;
mod journal;
mod shard;
pub mod socket;
pub mod wire;

pub use self::core::{IntervalMessage, ReplOp, RtMsg};
use self::core::{RtMember, RtServer};
pub use shard::ShardedGroupRuntime;
pub use socket::UdpGroupDriver;

/// Timing, loss, retry, and seeding knobs of a runtime session.
///
/// Constructed through [`RuntimeConfig::builder`] (mirroring the
/// [`GroupConfig`](crate::GroupConfig) builder), which validates every
/// knob in [`RuntimeConfigBuilder::build`] — so a `RuntimeConfig` in hand
/// is valid by construction and no driver ever has to reject
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

    /// Independent per-copy loss probability applied to `Forward` copies.
    pub(crate) fn loss(&self) -> f64 {
        self.loss
    }

    /// Retry attempt cap: the backoff exponent saturates here, and a NACK
    /// retried this many times escalates to a full resync.
    pub fn retry_cap(&self) -> u32 {
        self.retry_cap
    }

    /// Seed for the runtime's randomness (loss draws, heartbeat stagger,
    /// fault injection). Independent of the [`GroupConfig`](crate::GroupConfig)
    /// key-generation seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Key-server replicas (≥ 1). With more than one, the primary streams
    /// its mutation log to follower replicas and a deterministic election
    /// promotes the most-caught-up follower when the primary dies.
    pub(crate) fn replicas(&self) -> usize {
        self.replicas
    }

    /// Exponential backoff: `retry_base << attempts`, with the exponent
    /// saturated at the retry cap.
    pub(crate) fn backoff(&self, attempts: u32) -> SimTime {
        self.retry_base << attempts.min(self.retry_cap)
    }

    /// Replication stream period: entries are resent and heartbeats sent
    /// twice per rekey interval, so a follower is never more than half an
    /// interval behind a live primary.
    pub(crate) fn repl_period(&self) -> SimTime {
        (self.rekey_period / 2).max(1)
    }

    /// Follower liveness-check period.
    pub(crate) fn repl_check_period(&self) -> SimTime {
        self.rekey_period.max(1)
    }

    /// Primary silence past this threshold starts an election: two full
    /// rekey periods, i.e. at least four missed replication heartbeats.
    pub(crate) fn primary_silence(&self) -> SimTime {
        2 * self.rekey_period
    }

    /// How long one `finish` round runs the protocol after its flush: one
    /// NACK grace, the longest a member the flush's `Recover` finds behind
    /// waits before it asks for what it lacks (the answer may land in the
    /// next round).
    pub(crate) fn flush_slice(&self) -> SimTime {
        self.nack_grace
    }

    /// The node of the member on `host` (member handle `h` lives on
    /// `HostId(h)`): replicas occupy nodes `0..replicas`, members are
    /// offset past the whole block.
    pub(crate) fn member_node(&self, host: HostId) -> NodeId {
        NodeId(host.0 + self.replicas)
    }

    /// The member host behind node `node`; the inverse of
    /// [`RuntimeConfig::member_node`].
    pub(crate) fn member_host(&self, node: NodeId) -> HostId {
        debug_assert!(
            node.0 >= self.replicas,
            "server replicas have no member host"
        );
        HostId(node.0 - self.replicas)
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

    /// Runtime randomness seed.
    pub fn seed(mut self, seed: u64) -> RuntimeConfigBuilder {
        self.0.seed = seed;
        self
    }

    /// Key-server replica count (≥ 1; 1 means a single, unreplicated server).
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

/// Why a driver's `finish` has not converged: each conjunct of its
/// convergence condition as it stood after the last round, with the member
/// handles holding it open. [`UdpGroupDriver::not_converged`] returns it;
/// [`ShardedGroupRuntime::finish`] panics with it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NotConverged {
    /// The acting primary's rekey interval the members were measured against.
    pub interval: u64,
    /// Join requests the acting primary still has queued.
    pub joins: usize,
    /// Leave requests the acting primary still has queued.
    pub leaves: usize,
    /// Handles whose `LeaveAck` the acting primary still owes.
    pub pending_leave_acks: Vec<usize>,
    /// Handles that have not applied `interval`.
    pub lagging: Vec<usize>,
    /// Handles whose membership view is provably behind the server's.
    pub stale: Vec<usize>,
}

/// A question a driver answers about each of its live members; it lists
/// the handles for which the answer is `true`, in ascending order. It
/// crosses to the socket driver's worker threads, hence `Send + Sync`.
pub(crate) type MemberQuestion = Arc<dyn Fn(&RtMember) -> bool + Send + Sync>;

impl NotConverged {
    /// The convergence condition of both drivers' `finish`, computed in
    /// this one place: the acting primary `primary` has no join or leave
    /// queued and owes no leave ack, and every live member has applied the
    /// primary's interval and holds a current membership view. `live_where`
    /// asks the driver's live members a question.
    pub(crate) fn check(
        primary: &RtServer,
        config: &RuntimeConfig,
        mut live_where: impl FnMut(MemberQuestion) -> Vec<usize>,
    ) -> Result<(), NotConverged> {
        let (joins, leaves, pending_leave_acks) = primary.flush_backlog(config);
        let interval = primary.server.interval();
        let open = NotConverged {
            interval,
            joins,
            leaves,
            pending_leave_acks,
            lagging: live_where(Arc::new(move |m| !m.has_applied(interval))),
            stale: live_where(Arc::new(RtMember::is_stale)),
        };
        let clear = open.joins == 0
            && open.leaves == 0
            && open.pending_leave_acks.is_empty()
            && open.lagging.is_empty()
            && open.stale.is_empty();
        if clear {
            Ok(())
        } else {
            Err(open)
        }
    }
}

/// One scheduled churn action for [`ShardedGroupRuntime::run_trace`].
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

/// How lanes combine one counter: `sum` adds them, `max` keeps the larger,
/// and `set` leaves it to the driver, which sets it at snapshot time.
macro_rules! fold {
    (sum, $into:expr, $from:expr) => {
        $into += $from
    };
    (max, $into:expr, $from:expr) => {
        $into = $into.max($from)
    };
    (set, $into:expr, $from:expr) => {};
}

/// Generates every statement of the snapshot's series from one table: the
/// pub fields of [`MetricsSnapshot`], the lane's [`Sinks`] that nodes
/// count into and their merge, and the counters and histograms blocks of
/// [`MetricsSnapshot::to_json`], each in table order.
macro_rules! series {
    (
        counters { $( $(#[doc = $cdoc:literal])* $c:ident: $cty:ty = $fold:ident, )* }
        histograms { $( $(#[doc = $hdoc:literal])* $h:ident, )* }
    ) => {
        /// Aggregated outcome of a runtime session: counters, histogram
        /// summaries, and the tracing-span tail, for reports and benches.
        ///
        /// The counter fields are integers and the histogram/span types are
        /// `Eq`, so two snapshots from identically seeded runs can be compared
        /// wholesale in determinism tests; [`MetricsSnapshot::to_json`] renders
        /// the same data as a byte-stable JSON document for bench artifacts.
        ///
        /// The struct is `#[non_exhaustive]`: obtain one via
        /// [`ShardedGroupRuntime::snapshot`] or [`UdpGroupDriver::snapshot`] and
        /// read the fields you need — new series may appear in later versions
        /// without breaking callers.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        #[non_exhaustive]
        pub struct MetricsSnapshot {
            $( $(#[doc = $cdoc])* pub $c: $cty, )*
            $( $(#[doc = $hdoc])* pub $h: HistogramSnapshot, )*
            /// Tail of the tracing spans: the newest of each name (older
            /// ones drop first).
            pub spans: Vec<SpanRecord>,
            /// Spans evicted from the ring before this snapshot was taken.
            pub spans_dropped: u64,
        }

        /// What the nodes of one lane record: every counter and histogram
        /// of the snapshot, and a span log. Nodes only ever write here; no
        /// protocol decision reads it. Counters fold by their table row and
        /// histogram inserts commute, so lanes merge in any order; span
        /// logs are merged keeping the newest spans of each name, ordered
        /// by end time, ties by start, name and detail, so the merged tail
        /// is a function of (seed, lane layout) and never of thread timing.
        #[derive(Debug, Default)]
        pub(crate) struct Sinks {
            $( $(#[doc = $cdoc])* pub(crate) $c: $cty, )*
            $( $(#[doc = $hdoc])* pub(crate) $h: LocalHistogram, )*
            /// The server's `interval`/`restart`/`election`/`promotion`
            /// spans and the members' `apply`/`recovery` spans.
            pub(crate) spans: SpanLog,
        }

        impl MetricsSnapshot {
            /// The one place a snapshot is put together, whatever the
            /// driver: the sinks of every executor lane, the coordinator's
            /// first, merged. The driver then sets what only it knows.
            pub(crate) fn assemble<'a>(lanes: impl IntoIterator<Item = &'a Sinks>) -> MetricsSnapshot {
                let mut sum = Sinks::default();
                let mut rings = Vec::new();
                for lane in lanes {
                    $( fold!($fold, sum.$c, lane.$c); )*
                    $( sum.$h.merge(&lane.$h); )*
                    rings.push(&lane.spans);
                }
                let (spans, spans_dropped) = merge_spans(rings);
                MetricsSnapshot {
                    $( $c: sum.$c, )*
                    $( $h: sum.$h.snapshot(), )*
                    spans,
                    spans_dropped,
                }
            }

            /// Writes the counters and histograms blocks of the document.
            fn write_series(&self, w: &mut json::Writer) {
                w.begin_named_object("counters");
                $( w.field_u64(stringify!($c), u64::try_from(self.$c).unwrap_or(u64::MAX)); )*
                w.end_object();
                w.begin_named_object("histograms");
                $(
                    w.begin_named_object(stringify!($h));
                    self.$h.write_fields(w);
                    w.end_object();
                )*
                w.end_object();
            }
        }
    };
}

series! {
    counters {
        /// Completed rekey intervals.
        intervals: u64 = sum,
        /// Members in the group at the end.
        members: usize = set,
        /// Joins admitted by the server.
        joins: u64 = sum,
        /// Departures processed by the server.
        departures: u64 = sum,
        /// Departures that were detected by heartbeats (crashes).
        failures_detected: u64 = sum,
        /// `Forward` copies sent (server seeds + member forwards).
        forward_copies: u64 = sum,
        /// Copies dropped by the loss model (legacy i.i.d., fault-plan loss,
        /// and partition cuts).
        copies_lost: u64 = sum,
        /// Deliveries absorbed by crashed nodes.
        dead_letters: u64 = sum,
        /// Deliveries suppressed by outage windows (node temporarily down).
        suppressed: u64 = sum,
        /// NACKs received by the server.
        nacks: u64 = sum,
        /// Encryptions re-sent via unicast recovery.
        recovery_encryptions: u64 = sum,
        /// Heartbeat pings sent by members.
        pings: u64 = sum,
        /// Neighbor evictions after unanswered pings.
        evictions: u64 = sum,
        /// Control retransmissions by members (join/leave/NACK/resync).
        retransmissions: u64 = sum,
        /// Highest retry attempt count any member reached (≤ the cap).
        max_retry_attempts: u32 = max,
        /// Full state snapshots the server served.
        resyncs: u64 = sum,
        /// Members that rejoined after being disowned.
        rejoins: u64 = sum,
        /// Evicted neighbors reinstated after answering a probation probe.
        rehabilitations: u64 = sum,
        /// Server restarts (respawns at the end of an outage).
        restarts: u64 = sum,
        /// Checkpoints the acting primaries recorded.
        checkpoints: u64 = sum,
        /// Total messages delivered.
        delivered: u64 = sum,
        /// Welcome packets issued by the server.
        welcomes: u64 = sum,
        /// Leave acknowledgements sent (each after a covering checkpoint).
        leave_acks: u64 = sum,
        /// Key-wrap encryptions produced by the key tree's batch rekeys.
        tree_encryptions: u64 = sum,
        /// Retired key versions resumed past a tombstone during rekeying.
        tombstone_hits: u64 = sum,
        /// Messages cut by fault-plan partitions (0 without a plan).
        partition_cuts: u64 = sum,
        /// `Forward` copies dropped by fault-plan loss (0 without a plan;
        /// excludes the legacy i.i.d. `loss` stream).
        fault_loss_drops: u64 = sum,
        /// Elections started by follower replicas (0 with one replica).
        elections: u64 = sum,
        /// Followers promoted to primary (0 with one replica).
        promotions: u64 = sum,
        /// Mutations lost to restarts/promotions (ops past the recovered
        /// watermark; the affected members re-request).
        lost_mutations: u64 = sum,
        /// Peak replication lag (entries) any primary observed at a tick.
        repl_lag_peak: u64 = max,
        /// Peak in-flight event count inside the simulator.
        peak_queue_depth: usize = max,
    }
    histograms {
        /// µs from each interval's multicast to its local application.
        apply_delay_us,
        /// Membership mutations folded into each batch rekey.
        batch_size,
        /// Encryptions carried per split `Forward` copy received.
        split_payload,
        /// Copies sent per forwarding step (server seeds + member duty).
        forward_fanout,
        /// Encryptions per unicast recovery reply.
        recovery_size,
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as a deterministic JSON document:
    /// `{"counters": {...}, "histograms": {name: {count, sum, min, max,
    /// mean, p50, p95, p99}}, "spans_dropped": n, "spans": [...]}`.
    /// Identically seeded runs produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.begin_object();
        self.write_series(&mut w);
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

/// Checks that the members' *local* tables — not the server's — are
/// K-consistent for `group`'s membership (Definition 3). Each driver
/// reaches its members its own way, so it passes `table_of(handle)`:
/// member `handle` lives on `HostId(handle)` on both.
///
/// # Panics
///
/// Panics if a member of `group` holds no table — a protocol bug (the
/// member never received its overlay state), not a consistency violation.
pub(crate) fn check_member_tables<'a>(
    group: &Group,
    table_of: impl Fn(usize) -> Option<&'a NeighborTable>,
) -> Result<(), ConsistencyViolation> {
    let members = group.members();
    let tables = members
        .iter()
        .map(|m| table_of(m.host.0).expect("admitted member holds a table"));
    check_consistency(group.spec(), members, tables, group.k())
}

#[cfg(test)]
mod join_tests;

#[cfg(test)]
mod tests {
    use super::core::SERVER;
    use super::*;
    use crate::GroupConfig;
    use rekey_id::IdSpec;
    use rekey_net::{MatrixNetwork, PlanetLabParams};
    use rekey_sim::{seeded_rng, FaultPlan, GilbertElliott, NodeId};

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
    fn assert_members_current(rt: &ShardedGroupRuntime<MatrixNetwork>, survivors: &[usize]) {
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
        let mut rt = ShardedGroupRuntime::new(config(), RuntimeConfig::default(), small_net(1));
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
        let mut rt = ShardedGroupRuntime::new(config(), RuntimeConfig::default(), small_net(2));
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
        let mut rt = ShardedGroupRuntime::new(config(), runtime_config, small_net(3));
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
        let mut rt = ShardedGroupRuntime::new(config(), RuntimeConfig::default(), small_net(4));
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
    /// window) and respawns from its last checkpoint: the epoch bumps,
    /// every member resyncs, and the group ends the run current and
    /// consistent.
    #[test]
    fn server_restart_resumes_from_its_checkpoint() {
        let mut rt = ShardedGroupRuntime::new(config(), RuntimeConfig::default(), small_net(7))
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
        assert!(report.checkpoints > 0);
        assert_eq!(rt.group().len(), 10);
        assert_members_current(&rt, &handles);
    }

    /// Two members are cut off by a partition long enough to be wrongfully
    /// departed; after the heal the server disowns them (`NotMember`) and
    /// they rejoin from scratch, converging with everyone else.
    #[test]
    fn partition_wrongful_departs_heal_by_rejoin() {
        let mut rt =
            ShardedGroupRuntime::new(config(), RuntimeConfig::default(), small_net(8)).with_faults(
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
        let mut rt = ShardedGroupRuntime::new(config(), cfg, small_net(9))
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
        assert!(rt.last_join(0).retransmissions >= 4);
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
                ShardedGroupRuntime::new(config(), runtime_config, small_net(5)).with_faults(plan);
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
            let mut rt = ShardedGroupRuntime::new(config(), runtime_config, small_net(10));
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

    /// A joiner whose node goes down mid-interval, before its welcome
    /// exists in the tree, still ends current: member handle 4 joins at
    /// t = 4.2 s (mid first interval, which ends at 10 s) and is down for
    /// [5 s, 7 s), so on `Restart` it arms a resync that fires before its
    /// welcome is sealed.
    #[test]
    fn mid_interval_joiner_outage_resync() {
        let mut rng = seeded_rng(0xBEEF);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::small(), &mut rng);
        let group = GroupConfig::for_spec(&IdSpec::new(3, 8).unwrap())
            .k(2)
            .seed(3);
        let mut rt = ShardedGroupRuntime::new(group, RuntimeConfig::default(), net)
            .with_faults(FaultPlan::new().outage(NodeId(5), 5 * SEC, 7 * SEC));
        let trace: Vec<ChurnEvent> = (0..5)
            .map(|i| ChurnEvent::join(SEC + i * 800_000))
            .collect();
        rt.run_trace(&trace);
        rt.finish(40 * SEC);
        assert_members_current(&rt, &[0, 1, 2, 3, 4]);
    }
}
