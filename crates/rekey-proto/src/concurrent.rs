//! Concurrent rekey and data transport over one overlay, with bandwidth
//! contention — the scenario that motivates the whole paper (§1):
//!
//! > "bursty rekey traffic competes for available bandwidth with data
//! > traffic, and thus considerably increases the load of
//! > bandwidth-limited links … Congestion at such an access link causes
//! > data losses for many downstream users. Therefore, it is desired to
//! > reduce rekey bandwidth overhead as much as possible."
//!
//! This module runs *both* transports in one event simulation with the
//! egress-serialisation model of `rekey_sim`: every byte a member sends
//! occupies its access link, so an unsplit rekey burst queues in front of
//! the data frames at shared forwarders. [`run_concurrent_session`]
//! measures the data frames' delivery latency under a configurable rekey
//! load — quantifying exactly how much the splitting scheme buys.

use std::collections::HashMap;
use std::rc::Rc;

use rekey_id::{IdPrefix, UserId};
use rekey_net::{Micros, Network};
use rekey_sim::{Ctx, Node, NodeId, SimTime, Simulation};
use rekey_tmesh::forward::{server_next_hops, user_next_hops};
use rekey_tmesh::TmeshGroup;

use crate::transport::SplitIndex;

/// Messages of the concurrent session.
#[derive(Debug, Clone)]
pub enum TrafficMsg {
    /// External stimulus: the server starts the rekey multicast.
    StartRekey,
    /// External stimulus: the data sender emits frame `seq`.
    StartData {
        /// Frame sequence number.
        seq: u32,
    },
    /// A rekey copy carrying `forward_level` and the (possibly split)
    /// encryption IDs it contains — the IDs alone determine both splitting
    /// and wire size.
    RekeyCopy {
        /// The `forward_level` field of Fig. 2.
        forward_level: usize,
        /// Encryption IDs carried (indices into the session's message).
        encryptions: Rc<Vec<usize>>,
    },
    /// A data frame copy.
    DataCopy {
        /// The `forward_level` field.
        forward_level: usize,
        /// Frame sequence number.
        seq: u32,
    },
}

/// Wire-size parameters of the contention model.
#[derive(Debug, Clone, Copy)]
pub struct TrafficParams {
    /// Access-link bandwidth, bytes per second (per member, both
    /// directions modelled on egress only).
    pub bandwidth_bps: u64,
    /// Serialized size of one encryption, bytes (≈78 on our wire codec).
    pub encryption_bytes: u64,
    /// Serialized size of one data frame, bytes.
    pub data_bytes: u64,
    /// Fixed per-message header, bytes.
    pub header_bytes: u64,
    /// Number of data frames the sender emits.
    pub frames: u32,
    /// Gap between data frames, µs.
    pub frame_gap: Micros,
}

impl Default for TrafficParams {
    fn default() -> TrafficParams {
        TrafficParams {
            bandwidth_bps: 1_000_000 / 8 * 10, // 10 Mbit/s access links
            encryption_bytes: 78,
            data_bytes: 1_200,
            header_bytes: 40,
            frames: 20,
            frame_gap: 20_000, // 50 frames/s
        }
    }
}

impl TrafficParams {
    fn cost(&self, msg: &TrafficMsg) -> SimTime {
        let bytes = match msg {
            TrafficMsg::StartRekey | TrafficMsg::StartData { .. } => return 0,
            TrafficMsg::RekeyCopy { encryptions, .. } => {
                self.header_bytes + self.encryption_bytes * encryptions.len() as u64
            }
            TrafficMsg::DataCopy { .. } => self.header_bytes + self.data_bytes,
        };
        // µs = bytes / (bytes per µs)
        bytes * 1_000_000 / self.bandwidth_bps
    }
}

struct TrafficNode {
    table: Option<Rc<rekey_table::NeighborTable>>,
    server_table: Option<Rc<rekey_table::ServerTable>>,
    index: Rc<HashMap<UserId, usize>>,
    /// Prefix-range index over the session message's encryption IDs,
    /// shared by every node (see [`crate::SplitIndex`]).
    message: Rc<SplitIndex>,
    split: bool,
    got_rekey: bool,
    frame_arrivals: Vec<(u32, SimTime)>,
}

impl TrafficNode {
    /// The copy composed for a neighbor under `neighbor_prefix`. Under
    /// splitting, hop prefixes refine along forwarding chains, so the
    /// received subset filtered by the neighbor prefix equals the global
    /// related set of that prefix — one range extraction, no scan.
    fn split_for(&self, msg: &[usize], neighbor_prefix: &IdPrefix) -> Vec<usize> {
        if self.split {
            self.message.indices(neighbor_prefix.digits()).collect()
        } else {
            msg.to_vec()
        }
    }

    fn forward_rekey(&mut self, ctx: &mut Ctx<'_, TrafficMsg>, level: usize, encs: &[usize]) {
        let hops: Vec<(UserId, usize, usize, u16)> = match (&self.server_table, &self.table) {
            (Some(st), _) => server_next_hops(st)
                .into_iter()
                .map(|h| (h.neighbor.member.id, h.forward_level, h.row, h.column))
                .collect(),
            (None, Some(t)) => user_next_hops(t, level)
                .into_iter()
                .map(|h| (h.neighbor.member.id, h.forward_level, h.row, h.column))
                .collect(),
            _ => Vec::new(),
        };
        for (id, forward_level, row, _col) in hops {
            let prefix = id.prefix(row + 1);
            let subset = self.split_for(encs, &prefix);
            ctx.send(
                NodeId(self.index[&id]),
                TrafficMsg::RekeyCopy {
                    forward_level,
                    encryptions: Rc::new(subset),
                },
            );
        }
    }

    fn forward_data(&mut self, ctx: &mut Ctx<'_, TrafficMsg>, level: usize, seq: u32) {
        if let Some(t) = &self.table {
            let hops: Vec<(UserId, usize)> = user_next_hops(t, level)
                .into_iter()
                .map(|h| (h.neighbor.member.id, h.forward_level))
                .collect();
            for (id, forward_level) in hops {
                ctx.send(
                    NodeId(self.index[&id]),
                    TrafficMsg::DataCopy { forward_level, seq },
                );
            }
        }
    }
}

impl Node for TrafficNode {
    type Msg = TrafficMsg;

    fn receive(&mut self, ctx: &mut Ctx<'_, TrafficMsg>, _from: NodeId, msg: TrafficMsg) {
        match msg {
            TrafficMsg::StartRekey => {
                let all: Vec<usize> = (0..self.message.len()).collect();
                self.forward_rekey(ctx, 0, &all);
            }
            TrafficMsg::StartData { seq } => self.forward_data(ctx, 0, seq),
            TrafficMsg::RekeyCopy {
                forward_level,
                encryptions,
            } => {
                if !self.got_rekey {
                    self.got_rekey = true;
                    self.forward_rekey(ctx, forward_level, &encryptions);
                }
            }
            TrafficMsg::DataCopy { forward_level, seq } => {
                if self.frame_arrivals.iter().all(|&(s, _)| s != seq) {
                    self.frame_arrivals.push((seq, ctx.now()));
                    self.forward_data(ctx, forward_level, seq);
                }
            }
        }
    }
}

/// What rekey load (if any) runs concurrently with the data stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RekeyLoad {
    /// No rekeying: the data stream runs alone (baseline).
    None,
    /// The full message floods every hop (protocol `P1`).
    Unsplit,
    /// `REKEY-MESSAGE-SPLIT` trims every copy (protocol `P2`).
    Split,
}

/// Result of one concurrent session.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// Latency of every delivered data frame, sender → receiver (µs).
    pub frame_latencies: Vec<Micros>,
    /// Simulated completion time.
    pub finished_at: SimTime,
}

impl ConcurrentOutcome {
    /// The `q`-quantile of the frame latencies, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if no frames were delivered.
    pub fn latency_ms(&self, q: f64) -> f64 {
        assert!(!self.frame_latencies.is_empty(), "no frames delivered");
        let mut v = self.frame_latencies.clone();
        v.sort_unstable();
        let idx = ((q * (v.len() - 1) as f64).round()) as usize;
        v[idx] as f64 / 1000.0
    }
}

/// Runs one concurrent rekey+data session over `group`.
///
/// The data sender (`data_sender`, a member index) emits
/// `params.frames` frames at `params.frame_gap` intervals; at time 0 the
/// key server injects the rekey message described by `encryption_ids`
/// under the chosen [`RekeyLoad`]. Every transmission pays the
/// egress-serialisation cost of its wire size at the transmitting member.
///
/// # Panics
///
/// Panics if `data_sender` is out of range.
pub fn run_concurrent_session(
    group: &TmeshGroup,
    net: &impl Network,
    encryption_ids: &[IdPrefix],
    load: RekeyLoad,
    data_sender: usize,
    params: &TrafficParams,
) -> ConcurrentOutcome {
    let n = group.members().len();
    assert!(data_sender < n, "data sender out of range");
    let mut index = HashMap::with_capacity(n);
    for (i, m) in group.members().iter().enumerate() {
        index.insert(m.id, i);
    }
    let index = Rc::new(index);
    let message = Rc::new(SplitIndex::from_ids(encryption_ids));

    let mut nodes: Vec<TrafficNode> = (0..n)
        .map(|i| TrafficNode {
            table: Some(Rc::new(group.table(i).clone())),
            server_table: None,
            index: Rc::clone(&index),
            message: Rc::clone(&message),
            split: load == RekeyLoad::Split,
            got_rekey: false,
            frame_arrivals: Vec::new(),
        })
        .collect();
    nodes.push(TrafficNode {
        table: None,
        server_table: Some(Rc::new(group.server_table().clone())),
        index: Rc::clone(&index),
        message: Rc::clone(&message),
        split: load == RekeyLoad::Split,
        got_rekey: false,
        frame_arrivals: Vec::new(),
    });

    let hosts: Vec<rekey_net::HostId> = group
        .members()
        .iter()
        .map(|m| m.host)
        .chain(std::iter::once(group.server_host()))
        .collect();
    let delay = move |a: NodeId, b: NodeId| net.one_way(hosts[a.0], hosts[b.0]).max(1);
    let p = *params;
    let mut sim = Simulation::new(nodes, delay).with_egress(move |_, msg| p.cost(msg));

    if load != RekeyLoad::None {
        sim.inject_at(0, NodeId(n), NodeId(n), TrafficMsg::StartRekey);
    }
    let mut frame_sent_at = Vec::with_capacity(params.frames as usize);
    for seq in 0..params.frames {
        let at = u64::from(seq) * params.frame_gap;
        frame_sent_at.push(at);
        sim.inject_at(
            at,
            NodeId(data_sender),
            NodeId(data_sender),
            TrafficMsg::StartData { seq },
        );
    }
    let finished_at = sim.run_until_idle();

    let mut frame_latencies = Vec::new();
    for (i, node) in sim.nodes().iter().enumerate() {
        if i == data_sender || i >= n {
            continue;
        }
        for &(seq, at) in &node.frame_arrivals {
            frame_latencies.push(at - frame_sent_at[seq as usize]);
        }
    }
    ConcurrentOutcome {
        frame_latencies,
        finished_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rekey_id::{IdSpec, UserId};
    use rekey_net::{HostId, MatrixNetwork, PlanetLabParams};
    use rekey_table::{Member, PrimaryPolicy};

    fn setup(n: usize) -> (MatrixNetwork, TmeshGroup, Vec<IdPrefix>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        let net = MatrixNetwork::synthetic_planetlab(&PlanetLabParams::default(), &mut rng);
        let spec = IdSpec::new(3, 8).unwrap();
        let mut used = std::collections::HashSet::new();
        let members: Vec<Member> = (0..n)
            .map(|i| {
                let id = loop {
                    let c = UserId::from_index(&spec, rand::Rng::gen_range(&mut rng, 0..512));
                    if used.insert(c) {
                        break c;
                    }
                };
                Member {
                    id,
                    host: HostId(i),
                    joined_at: i as u64,
                }
            })
            .collect();
        let server = HostId(net.host_count() - 1);
        let group = TmeshGroup::build(&spec, members, server, &net, 2, PrimaryPolicy::SmallestRtt);
        // A heavy rekey message (~48 encryptions per member at mixed
        // depths, none at the root so splitting has traction) — the burst a
        // large churn interval would produce.
        let mut encs = Vec::new();
        for m in group.members() {
            for l in 1..=spec.depth() {
                for _ in 0..16 {
                    encs.push(m.id.prefix(l));
                }
            }
        }
        (net, group, encs)
    }

    #[test]
    fn every_member_gets_every_frame_under_all_loads() {
        let (net, group, encs) = setup(24);
        let params = TrafficParams {
            frames: 5,
            ..TrafficParams::default()
        };
        for load in [RekeyLoad::None, RekeyLoad::Split, RekeyLoad::Unsplit] {
            let out = run_concurrent_session(&group, &net, &encs, load, 0, &params);
            assert_eq!(
                out.frame_latencies.len(),
                (group.members().len() - 1) * 5,
                "{load:?}: every member must receive every frame exactly once"
            );
        }
    }

    /// The paper's motivation, measured: an unsplit rekey burst inflates
    /// concurrent data latency; splitting removes (almost all of) the
    /// inflation.
    #[test]
    fn splitting_shields_data_traffic_from_rekey_bursts() {
        let (net, group, encs) = setup(32);
        // 10 Mbit/s access links: the unsplit message is ~120 KB per copy
        // (~96 ms of serialisation each); the 1.2 s data window overlaps
        // the whole burst, while the data stream alone uses well under a
        // fifth of any link.
        let params = TrafficParams {
            frames: 60,
            ..TrafficParams::default()
        };
        let baseline = run_concurrent_session(&group, &net, &encs, RekeyLoad::None, 3, &params);
        let split = run_concurrent_session(&group, &net, &encs, RekeyLoad::Split, 3, &params);
        let unsplit = run_concurrent_session(&group, &net, &encs, RekeyLoad::Unsplit, 3, &params);
        let mean = |o: &ConcurrentOutcome| {
            o.frame_latencies.iter().sum::<u64>() as f64 / o.frame_latencies.len() as f64 / 1000.0
        };
        let (b, s, u) = (mean(&baseline), mean(&split), mean(&unsplit));
        let (b95, s95, u95) = (
            baseline.latency_ms(0.95),
            split.latency_ms(0.95),
            unsplit.latency_ms(0.95),
        );
        assert!(
            u > s * 1.05 && u95 > s95,
            "unsplit rekey must visibly inflate data latency: mean {b:.1}/{s:.1}/{u:.1} ms, \
             p95 {b95:.1}/{s95:.1}/{u95:.1} ms (baseline/split/unsplit)"
        );
        assert!(
            s < b * 1.05 && s95 <= b95 * 1.05,
            "split rekey must stay near the no-rekey baseline: mean {s:.1} vs {b:.1} ms"
        );
    }

    #[test]
    fn zero_frames_is_a_clean_noop() {
        let (net, group, encs) = setup(8);
        let params = TrafficParams {
            frames: 0,
            ..TrafficParams::default()
        };
        let out = run_concurrent_session(&group, &net, &encs, RekeyLoad::Split, 0, &params);
        assert!(out.frame_latencies.is_empty());
    }
}
