//! The system under test, as the benchmark sees it.
//!
//! Every name of a program item the benchmark uses appears in this file
//! and nowhere else: workloads and probes call the functions below and
//! hold the type aliases declared here. Later refactors of the program
//! may not edit `bench/`, so this file *is* the surface they must keep
//! (`bench/README.md` repeats the list).
//!
//! Deliberately absent: classic `GroupRuntime`, `distributed.rs`,
//! `ReferenceKeyTree`, `split::reference` and the `rekey-bench` crate —
//! ROADMAP plans to delete or hide all of them.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use rekey_crypto::{Encryption, Key};
use rekey_id::{IdPrefix, IdSpec, UserId};
use rekey_keytree::{KeyRing, ModifiedKeyTree, RekeyArena, RekeyBatch};
use rekey_metrics::{HistogramSnapshot, LocalHistogram};
use rekey_net::udp::UdpEndpoint;
use rekey_net::{GridNetwork, HostId, Network};
use rekey_proto::prelude::{
    GroupConfig, GroupServer, MetricsSnapshot, RuntimeConfig, ShardedGroupRuntime, UdpGroupDriver,
    UserAgent,
};
use rekey_proto::runtime::wire::{decode_msg, encode_forward_split, encode_msg};
use rekey_proto::runtime::{IntervalMessage, RtMsg};
use rekey_proto::transport::PrefixBuf;
use rekey_proto::{
    tmesh_rekey_transport, Group, IntervalOutcome, RekeyDelivery, SplitIndex, SplitIndexMaintainer,
    TransportOptions,
};
use rekey_sim::{seeded_rng, Scheduler, SimRng};
use rekey_table::PrimaryPolicy;
use rekey_tmesh::forward::{server_next_hops, user_next_hops};
use rekey_tmesh::TmeshGroup;

pub type Spec = IdSpec;
pub type Id = UserId;
pub type Net = GridNetwork;
pub type Enc = Encryption;
pub type Tree = ModifiedKeyTree;
pub type Arena = RekeyArena;
pub type Batch<'a> = RekeyBatch<'a>;
pub type Ring = KeyRing;
pub type Server = GroupServer;
pub type Agent = UserAgent;
pub type Outcome = IntervalOutcome;
pub type Delivery<'a> = RekeyDelivery<'a>;
pub type Mesh = TmeshGroup;
pub type ShardedRt = ShardedGroupRuntime<GridNetwork>;
pub type UdpRt = UdpGroupDriver<GridNetwork>;
pub type Snapshot = MetricsSnapshot;
pub type Hist = HistogramSnapshot;
pub type Rng = SimRng;

/// Fixed, not derived from the core count, so counts repeat everywhere.
pub const SEAL_THREADS: usize = 1;

// ---------------------------------------------------------------- rekey-id

pub fn spec(depth: usize, base: u16) -> Spec {
    IdSpec::new(depth, base).expect("benchmark specs are valid")
}

pub fn id_space(spec: &Spec) -> u64 {
    spec.id_space()
}

pub fn id_from_index(spec: &Spec, index: u64) -> Id {
    UserId::from_index(spec, index)
}

pub fn id_digits(id: &Id) -> &[u16] {
    id.digits()
}

/// How many prefixes of `id` are prefixes of `other`: `D + 1` prefix
/// tests, the check the split transport and the key ring run per
/// encryption.
pub fn id_shared_prefixes(id: &Id, other: &Id) -> usize {
    (0..=id.depth())
        .filter(|&len| id.prefix(len).is_prefix_of_id(other))
        .count()
}

// --------------------------------------------------------------- rekey-net

pub fn grid_default(hosts: usize) -> Net {
    GridNetwork::with_defaults(hosts)
}

pub fn grid(hosts: usize, base_us: u64, step_us: u64) -> Net {
    GridNetwork::new(hosts, base_us, step_us)
}

pub fn net_one_way(net: &Net, a: usize, b: usize) -> u64 {
    net.one_way(HostId(a), HostId(b))
}

/// A loopback socket pair for the send/recv probe.
pub struct UdpPair {
    tx: UdpEndpoint,
    rx: UdpEndpoint,
    peer: SocketAddr,
}

pub fn udp_pair() -> std::io::Result<UdpPair> {
    let tx = UdpEndpoint::bind_loopback()?;
    let rx = UdpEndpoint::bind_loopback()?;
    rx.set_read_timeout(Some(Duration::from_millis(200)))?;
    let peer = rx.local_addr();
    Ok(UdpPair { tx, rx, peer })
}

pub fn udp_send_frame(pair: &mut UdpPair, payload: &[u8]) -> bool {
    pair.tx
        .send_frame(pair.peer, 1, 2, payload)
        .unwrap_or(false)
}

/// Length of the received payload, `None` on timeout.
pub fn udp_recv_frame(pair: &mut UdpPair) -> Option<usize> {
    match pair.rx.recv_frame() {
        Ok(Some((_, payload))) => Some(payload.len()),
        _ => None,
    }
}

// ------------------------------------------------------------ rekey-crypto

pub fn rng(seed: u64) -> Rng {
    seeded_rng(seed)
}

/// A fresh key pair `(wrapping, carried)` for the seal/open probes.
pub fn key_pair(rng: &mut Rng) -> (Key, Key) {
    (
        Key::random(IdPrefix::root(), rng),
        Key::random(IdPrefix::root(), rng),
    )
}

pub fn enc_placeholder() -> Enc {
    Encryption::placeholder()
}

pub fn enc_seal_into(slot: &mut Enc, wrapping: &Key, carried: &Key, nonce_seed: u64) {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&nonce_seed.to_le_bytes());
    slot.seal_into(wrapping, carried, nonce);
}

pub fn enc_open(enc: &Enc, wrapping: &Key) -> bool {
    enc.open(wrapping).is_ok()
}

/// Digits of the ID of the key `enc` is sealed under (Lemma 3: a member
/// needs `enc` iff these are a prefix of its ID).
pub fn enc_id_digits(enc: &Enc) -> &[u16] {
    enc.id().digits()
}

// ----------------------------------------------------------- rekey-keytree

pub fn tree_new(spec: &Spec) -> Tree {
    let mut tree = ModifiedKeyTree::new(spec);
    tree.set_seal_threads(SEAL_THREADS);
    tree
}

pub fn arena_new() -> Arena {
    RekeyArena::new()
}

pub fn tree_batch_rekey<'a>(
    tree: &mut Tree,
    joins: &[Id],
    leaves: &[Id],
    rng: &mut Rng,
    arena: &'a mut Arena,
) -> Batch<'a> {
    tree.batch_rekey(joins, leaves, rng, arena)
        .expect("generated batches are valid")
}

/// The paper's rekey cost: encryptions in the batch's message.
pub fn batch_cost(batch: &Batch<'_>) -> usize {
    batch.cost()
}

pub fn batch_seal_nanos(batch: &Batch<'_>) -> u64 {
    batch.seal_nanos()
}

pub fn batch_encryptions<'b>(batch: &'b Batch<'_>) -> &'b [Enc] {
    batch.encryptions()
}

pub fn tree_group_key(tree: &Tree) -> Option<&Key> {
    tree.group_key()
}

pub fn tree_contains(tree: &Tree, id: &Id) -> bool {
    tree.contains_user(id)
}

/// Builds the key ring a member holds after its welcome: its path keys.
pub fn ring_new(tree: &Tree, id: &Id) -> Ring {
    KeyRing::new(id.clone(), tree.user_path_keys(id))
}

/// Walks a member's path keys without cloning them (the welcome lookup).
pub fn tree_path_key_count(tree: &Tree, id: &Id) -> usize {
    tree.user_path_keys(id).count()
}

pub fn ring_absorb<'a, I>(ring: &mut Ring, encryptions: I) -> usize
where
    I: IntoIterator<Item = &'a Enc>,
    I::IntoIter: Clone,
{
    ring.absorb(encryptions)
}

/// `KeyRing::absorb` on member `i`'s share of a delivery.
pub fn ring_absorb_delivery(ring: &mut Ring, delivery: &Delivery<'_>, i: usize) -> usize {
    ring.absorb(delivery.member(i))
}

pub fn ring_group_key(ring: &Ring) -> Option<&Key> {
    ring.group_key()
}

pub fn ring_matches_path(ring: &Ring, tree: &Tree) -> bool {
    ring.matches_path(tree.spec(), tree.user_path_keys(ring.user()))
}

// ------------------------------------------------ rekey-proto: sync facade

pub fn group_config(spec: &Spec, k: usize, seed: u64) -> GroupConfig {
    GroupConfig::for_spec(spec)
        .k(k)
        .seed(seed)
        .seal_threads(SEAL_THREADS)
}

/// `GroupConfig::bootstrap` plus one `UserAgent` per welcome, in member
/// order (`agents[i]` belongs to `server_members(..)[i]`).
pub fn facade_bootstrap(config: GroupConfig, hosts: &[usize], net: &Net) -> (Server, Vec<Agent>) {
    let server_host = HostId(net.host_count() - 1);
    let hosts: Vec<HostId> = hosts.iter().map(|&h| HostId(h)).collect();
    let (server, welcomes) = config
        .bootstrap(server_host, &hosts, net)
        .expect("benchmark groups fit their ID space");
    let agents = welcomes.into_iter().map(UserAgent::from_welcome).collect();
    (server, agents)
}

pub fn server_request_leave(server: &mut Server, id: &Id, net: &Net) {
    server
        .request_leave(id, net)
        .expect("generated leavers are members");
}

pub fn server_request_join(server: &mut Server, host: usize, net: &Net, now_us: u64) -> Id {
    server
        .request_join(HostId(host), net, now_us)
        .expect("benchmark groups fit their ID space")
}

pub fn server_end_interval(server: &mut Server) -> Outcome {
    server.end_interval()
}

pub fn server_deliver<'a>(server: &Server, net: &Net, outcome: &'a Outcome) -> Delivery<'a> {
    server.deliver(net, outcome)
}

pub fn server_mesh(server: &Server) -> Mesh {
    server.mesh()
}

pub fn server_interval(server: &Server) -> u64 {
    server.interval()
}

pub fn server_tree(server: &Server) -> &Tree {
    server.tree()
}

pub fn server_spec(server: &Server) -> &Spec {
    server.tree().spec()
}

/// Largest frame payload `udp_send_frame` accepts.
pub const UDP_MAX_PAYLOAD: usize = rekey_net::udp::MAX_PAYLOAD;

pub fn server_group_key(server: &Server) -> Option<&Key> {
    server.tree().group_key()
}

pub fn server_member_count(server: &Server) -> usize {
    server.group().len()
}

/// `(id, host index)` of member `i` in delivery order.
pub fn server_member(server: &Server, i: usize) -> (&Id, usize) {
    let member = &server.group().members()[i];
    (&member.id, member.host.0)
}

/// `Group::check`: K-consistency of every table (Definition 3).
pub fn server_check_tables(server: &Server) -> bool {
    server.group().check().is_ok()
}

/// The welcome agents of this interval's joiners, with their host index.
pub fn outcome_welcome_agents(outcome: &Outcome, server: &Server) -> Vec<(usize, Agent)> {
    outcome
        .welcomes
        .iter()
        .map(|w| {
            let host = server
                .group()
                .member(&w.id)
                .expect("welcomed IDs are members")
                .host
                .0;
            (host, UserAgent::from_welcome(w.clone()))
        })
        .collect()
}

pub fn outcome_interval(outcome: &Outcome) -> u64 {
    outcome.interval
}

pub fn outcome_cost(outcome: &Outcome) -> usize {
    outcome.cost()
}

pub fn outcome_encryptions(outcome: &Outcome) -> &[Enc] {
    outcome.encryptions()
}

/// Σ over members of encryptions received (the paper's Fig. 13 numerator).
pub fn delivery_total_received(delivery: &Delivery<'_>) -> u64 {
    delivery.total_received()
}

/// `UserAgent::handle_rekey` on member `i`'s share; returns keys installed.
pub fn agent_handle_delivery(
    agent: &mut Agent,
    interval: u64,
    delivery: &Delivery<'_>,
    i: usize,
) -> usize {
    agent.handle_rekey(interval, delivery.member(i)).installed()
}

/// `UserAgent::handle_rekey` on a whole message (what an eavesdropping
/// ex-member would try); returns keys installed.
pub fn agent_handle_message(agent: &mut Agent, interval: u64, message: &[Enc]) -> usize {
    agent.handle_rekey(interval, message).installed()
}

pub fn agent_group_key(agent: &Agent) -> Option<&Key> {
    agent.group_key()
}

pub type GroupState = Group;

/// `Group::bootstrap` alone: IDs dealt and every neighbor table built.
pub fn group_bootstrap(spec: &Spec, k: usize, members: usize, net: &Net) -> GroupState {
    let hosts: Vec<HostId> = (0..members).map(HostId).collect();
    Group::bootstrap(
        spec,
        HostId(net.host_count() - 1),
        k,
        PrimaryPolicy::SmallestRtt,
        rekey_proto::AssignParams::for_depth(spec.depth()),
        &hosts,
        net,
    )
    .expect("benchmark groups fit their ID space")
}

pub fn group_len(group: &GroupState) -> usize {
    group.len()
}

// --------------------------------------- rekey-tmesh, rekey-proto transport

pub fn mesh_member_count(mesh: &Mesh) -> usize {
    mesh.members().len()
}

/// `FORWARD` next hops of member `i` at `level`: the count, so the call
/// cannot be optimised away.
pub fn mesh_user_next_hops(mesh: &Mesh, i: usize, level: usize) -> usize {
    user_next_hops(mesh.table(i), level).len()
}

/// The digit prefixes the key server's own next hops serve — the split
/// keys of the first forwarding step.
pub fn mesh_server_hop_prefixes(mesh: &Mesh) -> Vec<Vec<u16>> {
    server_next_hops(mesh.server_table())
        .iter()
        .map(|hop| hop.prefix().digits().to_vec())
        .collect()
}

/// One split rekey transport session (`REKEY-MESSAGE-SPLIT` over T-mesh);
/// returns Σ encryptions received.
pub fn transport_session(mesh: &Mesh, net: &Net, message: &[Enc]) -> u64 {
    tmesh_rekey_transport(mesh, net, message, TransportOptions::split())
        .received
        .iter()
        .sum()
}

pub type SplitMaintainer = SplitIndexMaintainer;
pub type Split = SplitIndex;

pub fn split_maintainer() -> SplitMaintainer {
    SplitIndexMaintainer::new()
}

pub fn split_advance(maintainer: &mut SplitMaintainer, message: &[Enc]) -> Split {
    maintainer.advance(message)
}

pub fn split_related_total(index: &Split, prefix: &[u16]) -> usize {
    index.related_ranges(prefix).total()
}

// ------------------------------------------------------ rekey-proto wire

pub type Msg = RtMsg;

/// One `Forward` copy of `message` per subtree prefix, as the server's
/// first forwarding step sends them (all sharing the interval message).
pub fn wire_forward_msgs(interval: u64, message: &[Enc], prefixes: &[Vec<u16>]) -> Vec<Msg> {
    let shared = Arc::new(IntervalMessage {
        interval,
        epoch: 0,
        sent_at: 0,
        seq: 0,
        index: SplitIndex::build(message),
        encryptions: message.to_vec(),
    });
    prefixes
        .iter()
        .map(|prefix| RtMsg::Forward {
            level: 1,
            prefix: PrefixBuf::new(prefix),
            message: Arc::clone(&shared),
        })
        .collect()
}

pub fn wire_encode(msg: &Msg, out: &mut Vec<u8>) {
    encode_msg(msg, out);
}

pub fn wire_decode(buf: &[u8], spec: &Spec) -> bool {
    decode_msg(buf, spec).is_ok()
}

/// `encode_forward_split` of a `Forward` built by [`wire_forward_msgs`].
pub fn wire_encode_forward_split(msg: &Msg, out: &mut Vec<u8>) {
    let RtMsg::Forward {
        level,
        prefix,
        message,
    } = msg
    else {
        panic!("wire_encode_forward_split takes a Forward");
    };
    encode_forward_split(*level, prefix, message, out);
}

// ------------------------------------------------------------- rekey-sim

pub type Sched = Scheduler<u64>;

pub fn sched_new() -> Sched {
    Scheduler::new()
}

pub fn sched_now(s: &Sched) -> u64 {
    s.now()
}

pub fn sched_schedule_at(s: &mut Sched, at: u64, event: u64) {
    s.schedule_at(at, event);
}

pub fn sched_pop(s: &mut Sched) -> Option<(u64, u64)> {
    s.pop()
}

// --------------------------------------------------------- rekey-metrics

pub type LocalHist = LocalHistogram;

pub fn local_hist() -> LocalHist {
    LocalHistogram::new()
}

pub fn local_hist_record(h: &mut LocalHist, v: u64) {
    h.record(v);
}

pub fn local_hist_snapshot(h: &LocalHist) -> Hist {
    h.snapshot()
}

pub fn hist_count(h: &Hist) -> u64 {
    h.count
}

/// Interpolated `q`-quantile of a log-bucketed (12.5 % wide) histogram.
pub fn hist_percentile(h: &Hist, q: f64) -> u64 {
    h.percentile(q)
}

// ------------------------------------------- rekey-proto runtime drivers

pub const SHARDS: usize = 2;
pub const UDP_WORKERS: usize = 2;

pub fn runtime_config(period_us: u64, nack_grace_us: u64, loss: f64, seed: u64) -> RuntimeConfig {
    RuntimeConfig::builder()
        .rekey_period(period_us)
        .nack_grace(nack_grace_us)
        .heartbeat_period(1 << 40) // heartbeats off
        .retry_base((period_us / 8).max(1))
        .loss(loss)
        .seed(seed)
        .build()
}

pub fn sharded_bootstrapped(
    group: GroupConfig,
    config: RuntimeConfig,
    net: Net,
    members: usize,
) -> ShardedRt {
    let window = net.min_one_way();
    ShardedGroupRuntime::bootstrapped(group, config, net, members, SHARDS, window)
        .expect("benchmark groups fit their ID space")
}

pub fn sharded_leave_at(rt: &mut ShardedRt, at_us: u64, handle: usize) {
    rt.leave_at(at_us, handle);
}

pub fn sharded_run_until(rt: &mut ShardedRt, until_us: u64) {
    rt.run_until(until_us);
}

pub fn sharded_finish(rt: &mut ShardedRt, until_us: u64) -> u64 {
    rt.finish(until_us)
}

pub fn sharded_snapshot(rt: &ShardedRt) -> Snapshot {
    rt.snapshot()
}

pub fn sharded_server(rt: &ShardedRt) -> &Server {
    rt.server()
}

pub fn sharded_agent(rt: &ShardedRt, handle: usize) -> Option<&Agent> {
    rt.agent(handle)
}

pub fn sharded_check_tables(rt: &ShardedRt) -> bool {
    rt.check_consistency().is_ok()
}

pub fn udp_bootstrapped(
    group: GroupConfig,
    config: RuntimeConfig,
    net: Net,
    members: usize,
) -> std::io::Result<UdpRt> {
    UdpGroupDriver::bootstrapped(group, config, net, members, UDP_WORKERS)
        .map_err(|e| std::io::Error::other(e.to_string()))
}

pub fn udp_leave(rt: &mut UdpRt, handle: usize) {
    rt.leave(handle);
}

pub fn udp_join(rt: &mut UdpRt) -> usize {
    rt.join()
}

pub fn udp_run_to_interval(rt: &mut UdpRt, target: u64, timeout: Duration) -> bool {
    rt.run_to_interval(target, timeout)
}

pub fn udp_finish(rt: &mut UdpRt, timeout: Duration) -> bool {
    rt.finish(timeout)
}

pub fn udp_snapshot(rt: &UdpRt) -> Snapshot {
    rt.snapshot()
}

pub fn udp_server(rt: &UdpRt) -> &Server {
    rt.server()
}

pub fn udp_member_count(rt: &UdpRt) -> usize {
    rt.member_count()
}

pub fn udp_agent(rt: &UdpRt, handle: usize) -> Option<&Agent> {
    rt.agent(handle)
}

pub fn udp_check_tables(rt: &UdpRt) -> bool {
    rt.check_consistency().is_ok()
}

/// `SocketTraffic`, flattened to what the benchmark reports.
pub struct Traffic {
    pub packets_sent: u64,
    pub packets_received: u64,
    pub bytes_sent: u64,
    pub decode_errors: u64,
}

pub fn udp_traffic(rt: &UdpRt) -> Traffic {
    let t = rt.traffic();
    Traffic {
        packets_sent: t.packets_sent,
        packets_received: t.packets_received,
        bytes_sent: t.bytes_sent,
        decode_errors: t.decode_errors + t.malformed_frames,
    }
}

pub fn snapshot_json(snapshot: &Snapshot) -> String {
    snapshot.to_json()
}

/// The `MetricsSnapshot` series the benchmark reports.
pub struct RunCounters {
    pub intervals: u64,
    pub members: usize,
    pub joins: u64,
    pub departures: u64,
    pub forward_copies: u64,
    pub copies_lost: u64,
    pub nacks: u64,
    pub recovery_encryptions: u64,
    pub retransmissions: u64,
    pub resyncs: u64,
    pub delivered: u64,
    pub tree_encryptions: u64,
    pub peak_queue_depth: usize,
    /// µs from each interval's multicast to its application at a member.
    pub apply_delay_us: Hist,
    /// Σ encryptions carried by the `Forward` copies members received.
    pub forwarded_encryptions: u64,
}

pub fn snapshot_counters(s: &Snapshot) -> RunCounters {
    RunCounters {
        intervals: s.intervals,
        members: s.members,
        joins: s.joins,
        departures: s.departures,
        forward_copies: s.forward_copies,
        copies_lost: s.copies_lost,
        nacks: s.nacks,
        recovery_encryptions: s.recovery_encryptions,
        retransmissions: s.retransmissions,
        resyncs: s.resyncs,
        delivered: s.delivered,
        tree_encryptions: s.tree_encryptions,
        peak_queue_depth: s.peak_queue_depth,
        apply_delay_us: s.apply_delay_us.clone(),
        forwarded_encryptions: s.split_payload.sum,
    }
}
