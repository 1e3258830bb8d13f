//! Concurrent rekey and data transport over one overlay, with bandwidth
//! contention — the scenario that motivates the whole paper (§1):
//!
//! > "bursty rekey traffic competes for available bandwidth with data
//! > traffic, and thus considerably increases the load of
//! > bandwidth-limited links … Congestion at such an access link causes
//! > data losses for many downstream users. Therefore, it is desired to
//! > reduce rekey bandwidth overhead as much as possible."
//!
//! This module runs *both* transports in one event loop with an
//! egress-serialisation model: every byte a member sends occupies its
//! access link, so an unsplit rekey burst queues in front of the data
//! frames at shared forwarders. [`run_concurrent_session`] measures the
//! data frames' delivery latency under a configurable rekey load —
//! quantifying exactly how much the splitting scheme buys.

use rekey_id::IdPrefix;
use rekey_net::{Micros, Network};
use rekey_sim::{Scheduler, SimTime};
use rekey_tmesh::forward::{server_next_hops, user_next_hops, Hop};
use rekey_tmesh::TmeshGroup;

use crate::transport::SplitIndex;

/// Events of the concurrent session.
#[derive(Debug, Clone, Copy)]
enum TrafficMsg {
    /// The key server starts the rekey multicast.
    StartRekey,
    /// The data sender emits frame `seq`.
    StartData { seq: u32 },
    /// A rekey copy: its `forward_level` (Fig. 2) and how many encryptions
    /// it carries, which sets its wire size. Under splitting the copy for
    /// a hop holds exactly the encryptions related to the hop's prefix;
    /// without it, every copy is the whole message.
    RekeyCopy {
        forward_level: usize,
        encryptions: usize,
    },
    /// A data frame copy.
    DataCopy { forward_level: usize, seq: u32 },
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
    /// Time a copy occupies its sender's access link, µs.
    fn cost(&self, msg: &TrafficMsg) -> SimTime {
        let bytes = match msg {
            TrafficMsg::StartRekey | TrafficMsg::StartData { .. } => return 0,
            TrafficMsg::RekeyCopy { encryptions, .. } => {
                self.header_bytes + self.encryption_bytes * *encryptions as u64
            }
            TrafficMsg::DataCopy { .. } => self.header_bytes + self.data_bytes,
        };
        // µs = bytes / (bytes per µs)
        bytes * 1_000_000 / self.bandwidth_bps
    }
}

/// The copies in flight and every node's access link (members `0..n`,
/// the key server `n`).
struct Links<'a, N> {
    net: &'a N,
    params: TrafficParams,
    hosts: Vec<rekey_net::HostId>,
    queue: Scheduler<(usize, TrafficMsg)>,
    /// When each node's access link is free again.
    busy_until: Vec<SimTime>,
}

impl<N: Network> Links<'_, N> {
    /// Sends `msg` from `from` to `to`: it departs once the sender's link
    /// has carried everything queued before it, and arrives one one-way
    /// delay later.
    fn send(&mut self, from: usize, to: usize, msg: TrafficMsg) {
        let depart = self.queue.now().max(self.busy_until[from]) + self.params.cost(&msg);
        self.busy_until[from] = depart;
        let one_way = self.net.one_way(self.hosts[from], self.hosts[to]);
        self.queue.schedule_at(depart + one_way.max(1), (to, msg));
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
    let message = SplitIndex::from_ids(encryption_ids);
    let member_of = |hop: &Hop<'_>| {
        group
            .member_index(&hop.neighbor.member.id)
            .expect("neighbor must be a session member")
    };
    let rekey_copy = |hop: &Hop<'_>| TrafficMsg::RekeyCopy {
        forward_level: hop.forward_level,
        encryptions: match load {
            RekeyLoad::Split => message.count(hop.prefix().digits()),
            _ => message.len(),
        },
    };

    let mut links = Links {
        net,
        params: *params,
        hosts: group
            .members()
            .iter()
            .map(|m| m.host)
            .chain(std::iter::once(group.server_host()))
            .collect(),
        queue: Scheduler::new(),
        busy_until: vec![0; n + 1],
    };
    if load != RekeyLoad::None {
        links.queue.schedule_at(0, (n, TrafficMsg::StartRekey));
    }
    let mut frame_sent_at = Vec::with_capacity(params.frames as usize);
    for seq in 0..params.frames {
        let at = u64::from(seq) * params.frame_gap;
        frame_sent_at.push(at);
        links
            .queue
            .schedule_at(at, (data_sender, TrafficMsg::StartData { seq }));
    }

    let mut got_rekey = vec![false; n];
    let mut frame_arrivals: Vec<Vec<(u32, SimTime)>> = vec![Vec::new(); n];
    while let Some((now, (node, msg))) = links.queue.pop() {
        // The FORWARD this event runs, if any, and the data frame it
        // carries (`None` for rekey traffic).
        let (hops, frame) = match msg {
            TrafficMsg::StartRekey => (server_next_hops(group.server_table()), None),
            TrafficMsg::RekeyCopy { forward_level, .. } if !got_rekey[node] => {
                got_rekey[node] = true;
                (user_next_hops(group.table(node), forward_level), None)
            }
            TrafficMsg::StartData { seq } => (user_next_hops(group.table(node), 0), Some(seq)),
            TrafficMsg::DataCopy { forward_level, seq }
                if frame_arrivals[node].iter().all(|&(s, _)| s != seq) =>
            {
                frame_arrivals[node].push((seq, now));
                (user_next_hops(group.table(node), forward_level), Some(seq))
            }
            TrafficMsg::RekeyCopy { .. } | TrafficMsg::DataCopy { .. } => continue,
        };
        for hop in hops {
            let copy = match frame {
                None => rekey_copy(&hop),
                Some(seq) => TrafficMsg::DataCopy {
                    forward_level: hop.forward_level,
                    seq,
                },
            };
            links.send(node, member_of(&hop), copy);
        }
    }

    let mut frame_latencies = Vec::new();
    for (i, arrivals) in frame_arrivals.iter().enumerate() {
        if i == data_sender {
            continue;
        }
        for &(seq, at) in arrivals {
            frame_latencies.push(at - frame_sent_at[seq as usize]);
        }
    }
    ConcurrentOutcome {
        frame_latencies,
        finished_at: links.queue.now(),
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

    /// Copies leave one node one after another: three back-to-back sends
    /// of wire time `c` over one-way delay `d` arrive at `d + c`,
    /// `d + 2c` and `d + 3c`.
    #[test]
    fn egress_serialises_back_to_back_copies_per_node() {
        // d = 200 µs RTT / 2; c = 10 bytes at 1 byte/µs.
        let net = MatrixNetwork::from_matrix(vec![vec![0, 200], vec![200, 0]], vec![0, 0]);
        let params = TrafficParams {
            bandwidth_bps: 1_000_000,
            header_bytes: 1,
            data_bytes: 9,
            ..TrafficParams::default()
        };
        let mut links = Links {
            net: &net,
            params,
            hosts: vec![HostId(0), HostId(1)],
            queue: Scheduler::new(),
            busy_until: vec![0; 2],
        };
        for seq in 0..3 {
            let copy = TrafficMsg::DataCopy {
                forward_level: 1,
                seq,
            };
            links.send(0, 1, copy);
        }
        let arrivals: Vec<SimTime> = std::iter::from_fn(|| links.queue.pop())
            .map(|(at, _)| at)
            .collect();
        assert_eq!(arrivals, vec![110, 120, 130]);
    }
}
