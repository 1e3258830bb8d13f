//! The real-socket driver: the sans-I/O protocol over loopback UDP.
//!
//! The sibling `core` module defines the protocol as pure state machines
//! — one `Event` in (a decoded message, or a local timer or command), an
//! `Outbox` of sends and timers out. The simulation driver binds those
//! effects to a virtual clock; this module binds them to the operating
//! system instead:
//!
//! * **time** is a shared [`Instant`] epoch, read as integer microseconds
//!   (so `SimTime` arithmetic inside the core is unchanged — one unit is
//!   one real microsecond);
//! * **sends** become UDP datagrams on `127.0.0.1` via
//!   [`rekey_net::udp::UdpEndpoint`], encoded with the versioned
//!   [`super::wire`] codec (`Forward` frames are trimmed to the
//!   receiver's related subset, the paper's REKEY-MESSAGE-SPLIT, so a
//!   frame never outgrows a datagram);
//! * **timers** land in a per-thread [`Scheduler`] read against the wall
//!   clock and fire when it passes them. A datagram only ever becomes an
//!   `Event::Net` (in `Io::receive`, the one place frames are received
//!   and decoded), so nothing a peer sends can fire a timer or a command.
//!
//! # Topology
//!
//! Every thread is one lane with one socket. The coordinator (the caller's
//! thread) owns the server replica state machines — one per configured
//! replica, on nodes `0..replicas`, all behind the coordinator's socket —
//! and `workers` threads each own one socket *hosting many members*:
//! member node `n` lives on worker `(n − replicas) mod workers`, so a peer
//! can route a frame from the node number alone. The socket-layer header
//! carries logical source/destination nodes, and each lane hands a frame
//! to the node its `dst` names; a frame for a node the lane does not host
//! is dropped. Replication traffic between replicas travels over loopback
//! like member traffic; [`UdpGroupDriver::kill_server`] silences a replica
//! (its datagrams and timers are discarded, like a crashed process) so
//! tests can exercise follower election and promotion on real packets.
//!
//! The coordinator only makes progress while a driver method runs
//! ([`UdpGroupDriver::run_to_interval`], [`UdpGroupDriver::finish`]):
//! between calls, arriving datagrams simply wait in the kernel's receive
//! buffer. Member workers run continuously, so forwarding, NACK
//! recovery, and neighbor repair proceed in real time.
//!
//! Packet loss is real: nothing is simulated, but kernel receive-buffer
//! overflow under fan-out bursts drops datagrams exactly where a
//! congested link would — and the protocol's NACK/recover path repairs
//! the gap. [`UdpGroupDriver::traffic`] reports what the endpoints saw.
//!
//! Unlike the simulation engine the wall clock is not deterministic, so
//! runs are *not* byte-reproducible; equivalence with the simulated
//! driver is pinned by the `socket_equivalence` integration test, which
//! drives the same churn through both and compares final key trees.
//!
//! Everything here is about sockets and the wall clock; what is not, the
//! driver shares with the simulator. It deals the group once and clones
//! the dealt server for its followers, builds each dealt member with
//! `RtMember::welcomed`, answers the coordinator's lag and staleness
//! questions with `RtMember::has_applied` and `RtMember::is_stale`, and
//! audits the collected members' tables with the same function the
//! simulator's `check_consistency` calls.
//!
//! A lane's `Io` is the whole of it: the socket, the timers, and the
//! `Outbox` its nodes record their metrics into, with no lock. `finish`
//! has no mode of its own: its rounds flush the acting primary and pump
//! the live session, timers and retries included, until the convergence
//! condition the simulator's `finish` checks holds too — the workers
//! answer its questions about their members; at `Stop` each worker hands
//! its sinks back with its members.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rekey_id::IdSpec;
use rekey_net::udp::{EndpointStats, UdpEndpoint};
use rekey_net::{HostId, Network};
use rekey_sim::{NodeId, Scheduler, SimTime};
use rekey_table::ConsistencyViolation;

use super::core::{
    acting_primary, boot_timers, Effect, Event, Outbox, RtLocal, RtMember, RtServer, Sinks,
};
use super::wire::{decode_msg, encode_forward_split, encode_msg, WireError};
use super::{
    check_member_tables, ExecutorCounters, MemberQuestion, MetricsSnapshot, NotConverged, RtMsg,
    RuntimeConfig, ServerStats,
};

use crate::{Group, GroupConfig, GroupError, GroupServer, UserAgent};

/// The longest a lane blocks on its socket before it looks at its timers
/// and its commands again.
const POLL: Duration = Duration::from_millis(1);

/// Construction/runtime failures of the socket driver.
#[derive(Debug)]
pub enum SocketError {
    /// Group bootstrap failed (ID space exhausted, bad configuration).
    Group(GroupError),
    /// A socket could not be bound or driven.
    Io(std::io::Error),
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Group(e) => write!(f, "group bootstrap failed: {e}"),
            SocketError::Io(e) => write!(f, "socket driver I/O failed: {e}"),
        }
    }
}

impl std::error::Error for SocketError {}

impl From<GroupError> for SocketError {
    fn from(e: GroupError) -> SocketError {
        SocketError::Group(e)
    }
}

impl From<std::io::Error> for SocketError {
    fn from(e: std::io::Error) -> SocketError {
        SocketError::Io(e)
    }
}

/// Traffic totals over every endpoint (the coordinator's and the
/// workers'), plus protocol decode failures. All counters are cumulative
/// since construction. The coordinator reads the frames addressed to a
/// killed replica and drops them, so they count as received.
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketTraffic {
    /// Frames handed to the kernel.
    pub packets_sent: u64,
    /// Well-formed frames received.
    pub packets_received: u64,
    /// Bytes handed to the kernel (headers included).
    pub bytes_sent: u64,
    /// Bytes received in well-formed frames.
    pub bytes_received: u64,
    /// Sends refused locally for exceeding the datagram ceiling.
    pub oversize_drops: u64,
    /// Datagrams with a short or version-skewed socket header.
    pub malformed_frames: u64,
    /// Frames whose protocol payload failed to decode.
    pub decode_errors: u64,
}

/// Where each logical node's datagrams go: the server replicas, nodes
/// `0..replicas`, share the coordinator's socket, and members hash onto
/// the worker sockets by host.
struct Routes {
    coordinator: SocketAddr,
    workers: Vec<SocketAddr>,
}

impl Routes {
    fn addr_of(&self, config: &RuntimeConfig, node: NodeId) -> SocketAddr {
        if node.0 < config.replicas() {
            self.coordinator
        } else {
            self.workers[worker_of(config, node, self.workers.len())]
        }
    }
}

/// The worker, of `workers`, that hosts member node `node`.
fn worker_of(config: &RuntimeConfig, node: NodeId, workers: usize) -> usize {
    config.member_host(node).0 % workers
}

/// Serializes one protocol message for the wire. `Forward` frames are
/// trimmed to the receiver's related subset; everything else uses the
/// plain codec.
fn encode_payload(msg: &RtMsg, out: &mut Vec<u8>) {
    out.clear();
    match msg {
        RtMsg::Forward {
            level,
            prefix,
            message,
        } => encode_forward_split(*level, prefix, message, out),
        other => encode_msg(other, out),
    }
}

/// One thread's lane, the same for a worker and the coordinator: its
/// socket, the wall clock, its nodes' timers, the routing table, and the
/// lane's outbox, which a handled event's effects drain through and its
/// metrics land in.
struct Io {
    endpoint: UdpEndpoint,
    /// The read timeout `endpoint` was last given.
    read_timeout: Option<Duration>,
    routes: Arc<Routes>,
    spec: IdSpec,
    epoch: Instant,
    decode_errors: Arc<AtomicU64>,
    /// The hosted nodes' pending timers, on the wall clock.
    timers: Scheduler<(NodeId, RtLocal)>,
    out: Outbox,
    frame: Vec<u8>,
}

impl Io {
    /// Microseconds elapsed since the driver's epoch — the socket
    /// driver's `SimTime`.
    fn now(&self) -> SimTime {
        u64::try_from(self.epoch.elapsed().as_micros()).expect("run shorter than 584 000 years")
    }

    /// Files `local` to fire at `node` once the wall clock reaches `due`
    /// (clamped to the queue's clock: a timer seeded for a moment already
    /// behind it fires next).
    fn arm(&mut self, due: SimTime, node: NodeId, local: RtLocal) {
        let due = due.max(self.timers.now());
        self.timers.schedule_at(due, (node, local));
    }

    /// The next timer the wall clock has passed, if any.
    fn pop_due(&mut self) -> Option<(NodeId, RtLocal)> {
        if self.timers.next_time()? > self.now() {
            return None;
        }
        self.timers.pop().map(|(_, timer)| timer)
    }

    /// Waits up to `limit`, cut short at the next timer's deadline, for
    /// one datagram: `None` when none arrived in time (or the socket
    /// refused the wait), otherwise its destination node and what it
    /// decoded to — an `Err` is counted in `decode_errors`. This is the
    /// only path from the socket to an [`Event`], and it can only yield an
    /// [`Event::Net`]: a peer cannot raise a node's timers or its driver's
    /// commands, whatever bytes it sends.
    fn receive(&mut self, limit: Duration) -> Option<Result<(NodeId, Event), WireError>> {
        let timeout = match self.timers.next_time() {
            Some(due) => limit.min(Duration::from_micros(due.saturating_sub(self.now()).max(1))),
            None => limit,
        };
        if self.read_timeout != Some(timeout) {
            self.endpoint.set_read_timeout(Some(timeout)).ok()?;
            self.read_timeout = Some(timeout);
        }
        let (header, payload) = self.endpoint.recv_frame().ok()??;
        let decoded = decode_msg(payload, &self.spec).map(|msg| {
            let from = NodeId(header.src as usize);
            (NodeId(header.dst as usize), Event::Net { from, msg })
        });
        if decoded.is_err() {
            self.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
        Some(decoded)
    }

    /// Hands `event` to `node` through `handle`, the node's state
    /// machine, and carries out what it asked for: timers into the queue,
    /// sends onto the wire. The one place on this driver where an event
    /// reaches a node.
    fn deliver(&mut self, node: NodeId, event: Event, handle: impl FnOnce(&mut Outbox, Event)) {
        let now = self.now();
        (self.out.now, self.out.me) = (now, node);
        handle(&mut self.out, event);
        let mut effects = std::mem::take(&mut self.out.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Timer { delay, event } => self.arm(now + delay.max(1), node, event),
                Effect::Send { to, msg } => {
                    encode_payload(&msg, &mut self.frame);
                    let peer = self.routes.addr_of(self.out.config(), to);
                    let _ = self
                        .endpoint
                        .send_frame(peer, node.0 as u32, to.0 as u32, &self.frame);
                }
            }
        }
        self.out.effects = effects; // keeps its capacity for the next event
    }
}

/// A freshly created member handed to a worker thread, with any timers
/// to arm (absolute microseconds since the epoch).
struct Seed {
    node: NodeId,
    member: RtMember,
    timers: Vec<(SimTime, RtLocal)>,
}

/// Coordinator → worker control messages.
enum WorkerCtl {
    /// Host a new member.
    Spawn(Box<Seed>),
    /// Raise the driver command `local` at `node` (join/leave).
    Inject { node: NodeId, local: RtLocal },
    /// Reply with the hosted nodes whose member answers `question`.
    Ask {
        question: MemberQuestion,
        reply: mpsc::Sender<Vec<usize>>,
    },
    /// Drain the socket once more and return all hosted members.
    Stop,
}

/// What a stopping worker hands back: every member it hosted, keyed by
/// node id, ready for the coordinator's final consistency audit, and the
/// sinks they recorded into.
type Collected = (Vec<(NodeId, RtMember)>, Sinks);

/// Coordinator-side handle of one worker thread.
struct WorkerLink {
    ctl: mpsc::Sender<WorkerCtl>,
    stats: Arc<EndpointStats>,
    handle: Option<JoinHandle<Collected>>,
}

/// One worker thread: its [`Io`] and the members it hosts.
struct Worker {
    ctl: mpsc::Receiver<WorkerCtl>,
    io: Io,
    members: BTreeMap<usize, RtMember>,
}

impl Worker {
    fn run(mut self) -> Collected {
        loop {
            while let Ok(ctl) = self.ctl.try_recv() {
                match ctl {
                    WorkerCtl::Spawn(seed) => {
                        for (due, local) in seed.timers {
                            self.io.arm(due, seed.node, local);
                        }
                        self.members.insert(seed.node.0, seed.member);
                    }
                    WorkerCtl::Inject { node, local } => self.deliver(node, Event::Local(local)),
                    WorkerCtl::Ask { question, reply } => {
                        // The receiver may already have given up; a
                        // dropped reply channel is not our problem.
                        let _ = reply.send(self.nodes_where(&*question));
                    }
                    WorkerCtl::Stop => {
                        self.drain_socket();
                        let members = self.members.into_iter();
                        let members = members.map(|(n, m)| (NodeId(n), m)).collect();
                        return (members, self.io.out.sinks);
                    }
                }
            }
            while let Some((node, local)) = self.io.pop_due() {
                self.deliver(node, Event::Local(local));
            }
            // Block for one frame, up to the earlier of the poll interval
            // and the next timer deadline.
            if let Some(Ok((dst, event))) = self.io.receive(POLL) {
                self.deliver(dst, event);
            }
        }
    }

    /// The hosted nodes whose member matches `question`.
    fn nodes_where(&self, question: &dyn Fn(&RtMember) -> bool) -> Vec<usize> {
        self.members
            .iter()
            .filter(|(_, m)| question(m))
            .map(|(&node, _)| node)
            .collect()
    }

    /// Runs `node`'s state machine on one event.
    fn deliver(&mut self, node: NodeId, event: Event) {
        let Some(member) = self.members.get_mut(&node.0) else {
            return; // stale frame for a node this worker never hosted
        };
        self.io
            .deliver(node, event, |out, event| member.handle(out, event));
    }

    /// Final non-blocking drain so frames already in the kernel buffer
    /// are applied before the members are collected.
    fn drain_socket(&mut self) {
        for _ in 0..65_536 {
            match self.io.receive(Duration::from_micros(1)) {
                Some(Ok((dst, event))) => self.deliver(dst, event),
                Some(Err(_)) => {}
                None => return,
            }
        }
    }
}

/// One key-server replica on the coordinator thread: its state machine
/// and a liveness flag. The coordinator reads a dead replica's datagrams
/// off its socket and discards them, and its timers too — the socket
/// analogue of a crashed process whose packets go nowhere.
struct ServerSlot {
    rt: RtServer,
    alive: bool,
}

/// The real-socket group driver: the same protocol core as the
/// simulated runtime, executed over loopback UDP in real time.
///
/// Built fully populated by [`UdpGroupDriver::bootstrapped`] (the
/// O(N·D·B) dealing pass of [`GroupConfig::bootstrap`], like the simulated
/// runtime), then churned with [`join`](UdpGroupDriver::join) and
/// [`leave`](UdpGroupDriver::leave) — both travel as real packets.
/// Advance the session with [`run_to_interval`], then [`finish`] to
/// flush, stop the workers, and collect every member for inspection
/// ([`agent`](UdpGroupDriver::agent),
/// [`check_consistency`](UdpGroupDriver::check_consistency)).
///
/// [`run_to_interval`]: UdpGroupDriver::run_to_interval
/// [`finish`]: UdpGroupDriver::finish
pub struct UdpGroupDriver<NET: Network> {
    /// The RTT model the replicas consult for joins and leaves.
    net: NET,
    /// Server replicas on nodes `0..servers.len()`; slot 0 is the
    /// initial primary.
    servers: Vec<ServerSlot>,
    io: Io,
    workers: Vec<WorkerLink>,
    peak_timers: usize,
    server_host: HostId,
    /// Handles dealt so far; handle `h` is node `h + replicas` on host `h`.
    handles: usize,
    /// Populated by [`UdpGroupDriver::finish`]: member state machines
    /// collected from the workers, indexed by handle.
    collected: Vec<Option<RtMember>>,
    /// Populated by [`UdpGroupDriver::finish`]: each worker's sinks, in
    /// worker order.
    worker_sinks: Vec<Sinks>,
    finished: bool,
    not_converged: Option<NotConverged>,
}

impl<NET: Network> UdpGroupDriver<NET> {
    /// Builds a fully populated session: `members` members on hosts
    /// `0..members` (the server takes the network's last host), dealt
    /// into IDs and K-consistent tables by [`GroupConfig::bootstrap`],
    /// every agent welcomed at interval 1, the first rekey interval
    /// armed — and every member live on one of `workers` worker threads
    /// behind a real UDP socket.
    ///
    /// `net` is the RTT *model* the server consults for ID assignment
    /// and neighbor selection (loopback has no meaningful RTT spread);
    /// datagrams themselves travel at loopback speed.
    ///
    /// # Errors
    ///
    /// [`SocketError::Group`] when the dealing pass fails (ID space too
    /// small), [`SocketError::Io`] when a socket cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0` or `members` leaves no host for the
    /// server.
    pub fn bootstrapped(
        group: GroupConfig,
        config: RuntimeConfig,
        net: NET,
        members: usize,
        workers: usize,
    ) -> Result<UdpGroupDriver<NET>, SocketError> {
        assert!(workers > 0, "need at least one worker thread");
        assert!(
            members < net.host_count(),
            "need a host per member plus one for the server"
        );
        let server_host = HostId(net.host_count() - 1);
        let hosts: Vec<HostId> = (0..members).map(HostId).collect();
        let replicas = config.replicas();

        let mut worker_endpoints = Vec::with_capacity(workers);
        for _ in 0..workers {
            worker_endpoints.push(UdpEndpoint::bind_loopback()?);
        }
        let endpoint = UdpEndpoint::bind_loopback()?;
        let mut slots = Vec::with_capacity(replicas);
        let (server_fsm, welcomes) = group.bootstrap(server_host, &hosts, &net)?;
        // Loopback models no access links: every `Pong` carries 0.
        let assign = Arc::new(server_fsm.group().assign_params().clone());
        let outbox = || Outbox::new(config, Arc::clone(&assign), Arc::new([]));
        // Followers start from a copy of the dealt state — what replaying
        // the primary's bootstrap would have given them.
        for (replica, server_fsm) in vec![server_fsm; replicas].into_iter().enumerate() {
            // Datagrams travel at loopback speed, so pings would time
            // nothing: the server probes its RTT model for each joiner
            // instead of seeding the joiner's own probe. A killed socket
            // replica never restarts, so none takes a checkpoint.
            let mut rt = RtServer::new(&config, server_fsm, replica, false, false);
            if replica == 0 {
                // The bootstrap deal is counted once, on the primary.
                rt.stats.welcomes = members as u64;
            }
            slots.push(ServerSlot { rt, alive: true });
        }
        let spec = *slots[0].rt.server.group().spec();
        let routes = Arc::new(Routes {
            coordinator: endpoint.local_addr(),
            workers: worker_endpoints
                .iter()
                .map(UdpEndpoint::local_addr)
                .collect(),
        });

        let decode_errors = Arc::new(AtomicU64::new(0));
        // The epoch starts *after* the dealing pass: interval deadlines
        // count from here, exactly like the simulator's time zero.
        let epoch = Instant::now();

        let io = |endpoint| Io {
            endpoint,
            read_timeout: None,
            routes: Arc::clone(&routes),
            spec,
            epoch,
            decode_errors: Arc::clone(&decode_errors),
            timers: Scheduler::new(),
            out: outbox(),
            frame: Vec::new(),
        };
        let mut links = Vec::with_capacity(workers);
        for worker_endpoint in worker_endpoints {
            let (ctl_tx, ctl_rx) = mpsc::channel();
            let stats = worker_endpoint.stats();
            let worker = Worker {
                ctl: ctl_rx,
                io: io(worker_endpoint),
                members: BTreeMap::new(),
            };
            let handle = std::thread::Builder::new()
                .name("rekey-udp-worker".into())
                .spawn(move || worker.run())
                .map_err(SocketError::Io)?;
            links.push(WorkerLink {
                ctl: ctl_tx,
                stats,
                handle: Some(handle),
            });
        }

        let mut driver = UdpGroupDriver {
            net,
            servers: slots,
            io: io(endpoint),
            workers: links,
            peak_timers: 0,
            server_host,
            handles: 0,
            collected: Vec::new(),
            worker_sinks: Vec::new(),
            finished: false,
            not_converged: None,
        };

        // Seed the pre-welcomed members: agent current at interval 1,
        // interval-2 check armed at the first rekey boundary plus the
        // NACK grace.
        for (i, welcome) in welcomes.into_iter().enumerate() {
            let group = driver.servers[0].rt.server.group();
            let (member, check) = RtMember::welcomed(&config, group, i, welcome);
            let node = config.member_node(HostId(i));
            driver.handles += 1;
            driver
                .worker_of(node)
                .ctl
                .send(WorkerCtl::Spawn(Box::new(Seed {
                    node,
                    member,
                    timers: vec![check],
                })))
                .expect("worker thread alive at bootstrap");
        }

        for (node, due, timer) in boot_timers(&config) {
            driver.io.arm(due, node, timer);
        }
        Ok(driver)
    }

    fn worker_of(&self, node: NodeId) -> &WorkerLink {
        &self.workers[worker_of(self.io.out.config(), node, self.workers.len())]
    }

    /// The node of member `handle`.
    fn member_node(&self, handle: usize) -> NodeId {
        self.io.out.config().member_node(HostId(handle))
    }

    /// The replica currently acting as primary, among the alive ones.
    fn acting_primary(&self) -> usize {
        acting_primary(
            self.servers
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.alive)
                .map(|(replica, slot)| (replica, &slot.rt)),
        )
    }

    fn primary_rt(&self) -> &RtServer {
        &self.servers[self.acting_primary()].rt
    }

    /// Feeds one event to node `node`'s state machine and flushes its
    /// effects onto the wire. Events for a killed replica, or for a node
    /// that is no replica, are discarded.
    fn server_handle(&mut self, node: NodeId, event: Event) {
        let Some(server) = self.servers.get_mut(node.0).filter(|s| s.alive) else {
            return;
        };
        let net = &self.net;
        self.io
            .deliver(node, event, |out, event| server.rt.handle(out, net, event));
        self.peak_timers = self.peak_timers.max(self.io.timers.pending());
    }

    /// Pumps the server replicas — timers and the coordinator's socket,
    /// whose frames go to the replica their `dst` names — for up to
    /// `slice`.
    fn pump(&mut self, slice: Duration) {
        let deadline = Instant::now() + slice;
        loop {
            while let Some((node, local)) = self.io.pop_due() {
                debug_assert!(node.0 < self.servers.len());
                self.server_handle(node, Event::Local(local));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            if let Some(Ok((dst, event))) = self.io.receive(left.min(POLL)) {
                self.server_handle(dst, event);
            }
        }
    }

    /// Asks every worker which of its members match `question`; returns
    /// their handles in ascending order.
    fn members_where(&self, question: MemberQuestion) -> Vec<usize> {
        let (reply_tx, reply_rx) = mpsc::channel();
        for link in &self.workers {
            let (question, reply) = (Arc::clone(&question), reply_tx.clone());
            link.ctl
                .send(WorkerCtl::Ask { question, reply })
                .expect("worker thread alive");
        }
        drop(reply_tx);
        let config = self.io.out.config();
        let host = |n| config.member_host(NodeId(n)).0;
        let mut handles: Vec<usize> = reply_rx.iter().flatten().map(host).collect();
        handles.sort_unstable();
        handles
    }

    /// Spawns a brand-new member that joins through the server over real
    /// packets. Returns its handle; the admission completes during
    /// subsequent [`UdpGroupDriver::run_to_interval`] pumping.
    ///
    /// # Panics
    ///
    /// Panics when the network model has no host left, or after
    /// [`UdpGroupDriver::finish`].
    pub fn join(&mut self) -> usize {
        assert!(!self.finished, "driver already finished");
        let handle = self.handles;
        assert!(
            handle < self.server_host.0,
            "substrate has no free host for another join"
        );
        self.handles += 1;
        let node = self.member_node(handle);
        let member = RtMember::new();
        let link = self.worker_of(node);
        link.ctl
            .send(WorkerCtl::Spawn(Box::new(Seed {
                node,
                member,
                timers: Vec::new(),
            })))
            .expect("worker thread alive");
        link.ctl
            .send(WorkerCtl::Inject {
                node,
                local: RtLocal::Join,
            })
            .expect("worker thread alive");
        handle
    }

    /// Requests a voluntary leave of member `handle` (a real
    /// `LeaveRequest` datagram follows).
    ///
    /// # Panics
    ///
    /// Panics on a handle that was never dealt, or after
    /// [`UdpGroupDriver::finish`].
    pub fn leave(&mut self, handle: usize) {
        assert!(!self.finished, "driver already finished");
        assert!(handle < self.handles, "member handle {handle} never joined");
        let node = self.member_node(handle);
        self.worker_of(node)
            .ctl
            .send(WorkerCtl::Inject {
                node,
                local: RtLocal::Leave,
            })
            .expect("worker thread alive");
    }

    /// Kills server replica `replica`: from now on its datagrams and
    /// timers are silently discarded, exactly as if the process died.
    /// With replicas configured, a follower detects the silence and
    /// promotes itself over real packets.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range replica index.
    pub fn kill_server(&mut self, replica: usize) {
        assert!(replica < self.servers.len(), "no such replica");
        self.servers[replica].alive = false;
    }

    /// Pumps the session until the acting primary has completed rekey
    /// interval `target` *and* every live member has applied it, or
    /// `timeout` elapses. Returns whether the target was reached.
    pub fn run_to_interval(&mut self, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.pump(Duration::from_millis(20));
            let lagging = Arc::new(move |m: &RtMember| !m.has_applied(target));
            if self.primary_rt().server.interval() >= target
                && self.members_where(lagging).is_empty()
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }

    /// Shuts the session down: runs the live protocol in rounds until
    /// the convergence condition of [`NotConverged`] holds or `timeout`
    /// passes, then stops the workers and collects every member state
    /// machine for inspection. Each round hands the acting primary a
    /// flush — it folds pending membership work into an interval and
    /// pushes every member its latest related set and table version — and
    /// pumps the session for [`RuntimeConfig`]'s flush slice; timers,
    /// retries and their escalation keep running as in any other round
    /// of the session. Returns whether the condition held; when it did
    /// not, [`UdpGroupDriver::not_converged`] says what was still open,
    /// and for which members.
    ///
    /// Idempotent: later calls have no further effect and return what
    /// the first one did.
    pub fn finish(&mut self, timeout: Duration) -> bool {
        if self.finished {
            return self.not_converged.is_none();
        }
        let deadline = Instant::now() + timeout;
        let slice = Duration::from_micros(self.io.out.config().flush_slice());
        let converged = loop {
            // Flush whichever replica is acting primary — after a
            // failover that is the promoted follower.
            let primary = self.acting_primary();
            self.server_handle(NodeId(primary), Event::Local(RtLocal::Flush));
            self.pump(slice);
            let primary = self.primary_rt();
            let config = self.io.out.config();
            match NotConverged::check(primary, config, |q| self.members_where(q)) {
                Ok(()) => break true,
                Err(open) if Instant::now() >= deadline => {
                    self.not_converged = Some(open);
                    break false;
                }
                Err(_) => {}
            }
        };
        self.collected = (0..self.handles).map(|_| None).collect();
        for link in &mut self.workers {
            link.ctl.send(WorkerCtl::Stop).expect("worker thread alive");
        }
        let config = *self.io.out.config();
        for link in &mut self.workers {
            let (members, sinks) = link
                .handle
                .take()
                .expect("worker joined once")
                .join()
                .expect("worker thread did not panic");
            for (node, member) in members {
                self.collected[config.member_host(node).0] = Some(member);
            }
            self.worker_sinks.push(sinks);
        }
        self.finished = true;
        converged
    }

    /// What [`UdpGroupDriver::finish`] was still waiting for when it gave
    /// up; `None` before `finish` and after a converged one.
    pub fn not_converged(&self) -> Option<&NotConverged> {
        self.not_converged.as_ref()
    }

    /// The authoritative server state machine (the acting primary's).
    pub fn server(&self) -> &GroupServer {
        &self.primary_rt().server
    }

    /// The authoritative membership view (the acting primary's).
    pub fn group(&self) -> &Group {
        self.primary_rt().server.group()
    }

    /// The index of the replica currently acting as primary (0 until a
    /// failover promotes a follower).
    pub fn primary_replica(&self) -> usize {
        self.acting_primary()
    }

    /// Handles dealt so far (alive or departed).
    pub fn member_count(&self) -> usize {
        self.handles
    }

    /// Member `handle`'s key agent. Only available after
    /// [`UdpGroupDriver::finish`] (members live on worker threads until
    /// then); `None` for a departed or never-admitted member.
    pub fn agent(&self, handle: usize) -> Option<&UserAgent> {
        self.collected.get(handle)?.as_ref()?.agent.as_ref()
    }

    /// Verifies K-consistency of every live member's local table against
    /// the authoritative membership. Call after
    /// [`UdpGroupDriver::finish`].
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    ///
    /// # Panics
    ///
    /// Panics before [`UdpGroupDriver::finish`] (members not collected
    /// yet) or when an admitted member is missing its table.
    pub fn check_consistency(&self) -> Result<(), ConsistencyViolation> {
        assert!(self.finished, "collect members with finish() first");
        check_member_tables(self.group(), |handle| {
            let member = self.collected[handle].as_ref();
            member
                .expect("admitted member was collected")
                .table
                .as_deref()
        })
    }

    /// Aggregated endpoint traffic (the coordinator and all workers).
    pub fn traffic(&self) -> SocketTraffic {
        let mut total = SocketTraffic {
            decode_errors: self.io.decode_errors.load(Ordering::Relaxed),
            ..SocketTraffic::default()
        };
        let mut absorb = |stats: &EndpointStats| {
            total.packets_sent += stats.packets_sent.load(Ordering::Relaxed);
            total.packets_received += stats.packets_received.load(Ordering::Relaxed);
            total.bytes_sent += stats.bytes_sent.load(Ordering::Relaxed);
            total.bytes_received += stats.bytes_received.load(Ordering::Relaxed);
            total.oversize_drops += stats.oversize_drops.load(Ordering::Relaxed);
            total.malformed_frames += stats.malformed_frames.load(Ordering::Relaxed);
        };
        absorb(&self.io.endpoint.stats());
        for link in &self.workers {
            absorb(&link.stats);
        }
        total
    }

    /// Aggregates the session's counters and histograms into the same
    /// [`MetricsSnapshot`] shape the simulator produces.
    /// `delivered` counts received frames; `copies_lost` counts local
    /// oversize drops (kernel drops are invisible — they surface as NACK
    /// recoveries instead). Member-side counters, histograms and spans
    /// are merged only after [`UdpGroupDriver::finish`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let traffic = self.traffic();
        MetricsSnapshot::assemble(
            self.group().len(),
            ServerStats::sum(self.servers.iter().map(|slot| &slot.rt.stats)),
            self.collected.iter().flatten().map(|member| &member.stats),
            std::iter::once(&self.io.out.sinks).chain(&self.worker_sinks),
            ExecutorCounters {
                copies_lost: traffic.oversize_drops,
                dead_letters: traffic.malformed_frames + traffic.decode_errors,
                delivered: traffic.packets_received,
                peak_queue_depth: self.peak_timers,
                ..ExecutorCounters::default()
            },
        )
    }
}

impl<NET: Network> Drop for UdpGroupDriver<NET> {
    fn drop(&mut self) {
        if !self.finished {
            // Stop the worker threads even on an abandoned session; the
            // members they return are discarded.
            for link in &mut self.workers {
                let _ = link.ctl.send(WorkerCtl::Stop);
            }
            for link in &mut self.workers {
                if let Some(handle) = link.handle.take() {
                    let _ = handle.join();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rekey_id::IdSpec;
    use rekey_net::GridNetwork;

    const PERIOD: SimTime = 120_000; // 120 ms real time per interval

    fn driver(members: usize, seed: u64, replicas: usize) -> UdpGroupDriver<GridNetwork> {
        let net = GridNetwork::new(members + 8, 1_000, 100);
        let group = GroupConfig::for_spec(&IdSpec::new(3, 4).unwrap())
            .k(2)
            .seed(11);
        let config = RuntimeConfig::builder()
            .rekey_period(PERIOD)
            .nack_grace(PERIOD / 4)
            .heartbeat_period(1 << 40)
            .retry_base(PERIOD / 8)
            .replicas(replicas)
            .seed(seed)
            .build();
        UdpGroupDriver::bootstrapped(group, config, net, members, 2).expect("driver builds")
    }

    /// With its only server dead a joiner is never admitted, so it can
    /// never apply an interval: `finish` must give up, and say it was the
    /// joiner it was waiting for.
    #[test]
    fn finish_that_gives_up_names_what_was_still_open() {
        let mut rt = driver(8, 5, 1);
        assert!(rt.not_converged().is_none());
        rt.kill_server(0);
        let joiner = rt.join();
        assert!(!rt.finish(Duration::from_millis(100)), "nobody to flush");
        let open = rt.not_converged().expect("finish gave up");
        assert_eq!(open.lagging, vec![joiner]);
        assert_eq!((open.joins, open.leaves), (0, 0));
        assert!(open.pending_leave_acks.is_empty() && open.stale.is_empty());
        assert!(
            !rt.finish(Duration::from_millis(100)),
            "a repeat call still fails"
        );
        assert!(rt.not_converged().is_some());
    }

    /// Replicated followers start from the primary's dealt state: every
    /// replica holds replica 0's roster and tree group key before the
    /// session runs.
    #[test]
    fn replicated_followers_start_identical_to_the_primary() {
        let net = GridNetwork::new(16, 1_000, 100);
        let group = GroupConfig::for_spec(&IdSpec::new(3, 4).unwrap())
            .k(2)
            .seed(11);
        let config = RuntimeConfig::builder().replicas(3).build();
        let rt = UdpGroupDriver::bootstrapped(group, config, net, 12, 1).expect("driver builds");
        assert_eq!(rt.servers.len(), 3);
        let primary = &rt.servers[0].rt.server;
        assert_eq!(primary.group().len(), 12);
        assert!(primary.tree().group_key().is_some());
        for slot in &rt.servers[1..] {
            let follower = &slot.rt.server;
            assert_eq!(follower.group().members(), primary.group().members());
            assert_eq!(follower.tree().group_key(), primary.tree().group_key());
        }
    }

    /// Nothing a peer can put in a datagram fires a node's timers or
    /// issues its driver's commands. A foreign socket sends the primary
    /// the frames that once encoded `Restart`, `Flush`, `IntervalTick` and
    /// `ElectionTick`, and a live member — as if from itself — the wire
    /// forms of "leave now" and "join now": the first four are decode
    /// errors, the other two are requests only a server acts on, and the
    /// session runs on as if they had never been sent.
    #[test]
    fn forged_local_events_change_nothing() {
        const TARGET: usize = 5;
        let mut rt = driver(16, 9, 1);
        let roster = rt.group().members().to_vec();
        let node = rt.member_node(TARGET);
        let routes = &rt.io.routes;
        let (primary, worker) = (routes.coordinator, routes.addr_of(rt.io.out.config(), node));
        let mut forger = UdpEndpoint::bind_loopback().expect("foreign socket binds");
        let gen = 0u64.to_le_bytes();
        let v = crate::runtime::wire::WIRE_VERSION;
        let to_primary = [
            vec![v, 0x03],
            vec![v, 0x02],
            [&[v, 0x01][..], &gen].concat(),
            [&[v, 0x1F][..], &gen].concat(),
        ];
        for frame in &to_primary {
            forger.send_frame(primary, 0, 0, frame).expect("loopback");
        }
        for frame in [[v, 0x08], [v, 0x04]] {
            let me = node.0 as u32;
            forger.send_frame(worker, me, me, &frame).expect("loopback");
        }

        assert!(rt.run_to_interval(2, Duration::from_secs(20)), "interval 2");
        assert!(rt.run_to_interval(3, Duration::from_secs(20)), "interval 3");
        // The kernel may drop a forged loopback datagram: at least one of
        // the four retired tags is seen, and nothing else fails to decode.
        for _ in 0..100 {
            if rt.traffic().decode_errors >= 1 {
                break;
            }
            rt.pump(Duration::from_millis(20));
        }
        let errors = rt.traffic().decode_errors;
        assert!((1..=4).contains(&errors), "{errors} decode errors");
        assert!(rt.finish(Duration::from_secs(20)), "flush converged");

        let report = rt.snapshot();
        assert_eq!((report.restarts, report.elections), (0, 0));
        assert_eq!(rt.primary_rt().epoch, 0, "no restart beacon");
        assert_eq!(rt.group().members(), roster, "nobody left, nobody joined");
        let agent = rt.agent(TARGET).expect("the targeted member stayed in");
        assert_eq!(agent.interval(), rt.server().interval());
        assert_eq!(agent.group_key(), rt.server().tree().group_key());
        rt.check_consistency().expect("tables stay K-consistent");
    }

    /// The coordinator's one socket serves every replica by the frame's
    /// `dst`. A forged frame addressed past the replica block, and one
    /// addressed to a killed replica, are read and dropped: the first, a
    /// leave from a live member, would depart it if it reached the
    /// primary; the second, a replication entry of a later epoch departing
    /// the same member, would move the killed follower's epoch and roster
    /// if it reached it. Neither changes the roster, an epoch, the restart
    /// or election counts, and the session still converges K-consistent.
    #[test]
    fn forged_frames_past_the_replicas_or_to_a_killed_one_change_nothing() {
        const TARGET: usize = 5;
        const REPLICAS: usize = 3;
        let mut rt = driver(16, 9, REPLICAS);
        rt.kill_server(2);
        let roster = rt.group().members().to_vec();
        let member = rt.member_node(TARGET).0 as u32;
        let id = roster[TARGET].id;
        let mut forger = UdpEndpoint::bind_loopback().expect("foreign socket binds");
        let mut frame = Vec::new();
        encode_msg(&RtMsg::LeaveRequest, &mut frame);
        let coordinator = rt.io.routes.coordinator;
        let past_the_replicas = REPLICAS as u32;
        let dst = past_the_replicas;
        forger
            .send_frame(coordinator, member, dst, &frame)
            .expect("loopback");
        let entry = RtMsg::ReplEntry {
            idx: 1,
            epoch: 7,
            op: crate::runtime::ReplOp::Leave { id },
        };
        frame.clear();
        encode_msg(&entry, &mut frame);
        forger
            .send_frame(coordinator, 0, 2, &frame)
            .expect("loopback");

        assert!(rt.run_to_interval(2, Duration::from_secs(20)), "interval 2");
        assert!(rt.run_to_interval(3, Duration::from_secs(20)), "interval 3");
        assert!(rt.finish(Duration::from_secs(20)), "flush converged");
        assert_eq!(rt.traffic().decode_errors, 0, "both forged frames decode");

        let report = rt.snapshot();
        assert_eq!((report.restarts, report.elections), (0, 0));
        assert_eq!(rt.primary_replica(), 0);
        for slot in &rt.servers {
            assert_eq!(slot.rt.epoch, 0, "no replica moved its epoch");
        }
        assert_eq!(rt.group().members(), roster, "nobody left, nobody joined");
        let killed = rt.servers[2].rt.server.group();
        assert_eq!(
            killed.members(),
            roster,
            "the killed replica replayed nothing"
        );
        let agent = rt.agent(TARGET).expect("the targeted member stayed in");
        assert_eq!(agent.group_key(), rt.server().tree().group_key());
        rt.check_consistency().expect("tables stay K-consistent");
    }

    /// Dealt members start on the group's own tables and, with no churn,
    /// still hold them when the workers hand them back.
    #[test]
    fn dealt_members_share_the_groups_tables() {
        let mut rt = driver(12, 5, 1);
        assert!(rt.finish(Duration::from_secs(20)), "flush converged");
        for handle in 0..rt.member_count() {
            let member = rt.collected[handle].as_ref().expect("collected");
            let held = member.table.as_ref().expect("a dealt member holds a table");
            assert!(
                Arc::ptr_eq(held, rt.group().table(handle)),
                "member {handle}"
            );
        }
    }

    /// Bootstrap, one leave and one fresh join over real packets, three
    /// rekey intervals, clean shutdown: everyone K-consistent and
    /// current.
    #[test]
    fn loopback_session_reaches_consistency() {
        let mut rt = driver(12, 3, 1);
        assert_eq!(rt.server().interval(), 1);

        rt.leave(5);
        assert!(rt.run_to_interval(2, Duration::from_secs(20)), "interval 2");
        let joined = rt.join();
        assert!(rt.run_to_interval(3, Duration::from_secs(20)), "interval 3");
        assert!(rt.finish(Duration::from_secs(20)), "flush converged");

        assert!(rt.agent(5).is_none(), "leaver kept its agent");
        let group_key = rt.server().tree().group_key().expect("non-empty group");
        let agent = rt.agent(joined).expect("joiner was admitted");
        assert_eq!(agent.group_key(), Some(group_key));
        for handle in 0..rt.member_count() {
            if handle == 5 {
                continue;
            }
            let agent = rt.agent(handle).expect("survivor holds an agent");
            assert_eq!(agent.group_key(), Some(group_key), "member {handle} stale");
        }
        rt.check_consistency().expect("tables stay K-consistent");

        let report = rt.snapshot();
        assert_eq!(report.departures, 1);
        assert_eq!(report.joins, 1);
        assert!(report.intervals >= 2);
        // Every worker handed its sinks back with its members.
        let members = rt.collected.iter().flatten();
        let applied: u64 = members.map(|m| m.stats.intervals_applied).sum();
        assert!(applied > 0, "members applied intervals");
        assert_eq!(report.apply_delay_us.count, applied);
        let traffic = rt.traffic();
        assert!(traffic.packets_received > 0, "no real packets flowed");
        assert_eq!(traffic.malformed_frames, 0);
        assert_eq!(traffic.decode_errors, 0);
    }
}
