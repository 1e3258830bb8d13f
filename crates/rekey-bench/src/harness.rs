//! Experiment harness: topology construction, group growth and the shared
//! latency-figure pipeline (Figs. 6–11, 14).

use rand::seq::SliceRandom;
use rand::Rng;
use rekey_id::IdSpec;
use rekey_net::gtitm::{generate, GtItmParams};
use rekey_net::{
    GridNetwork, HostId, LinkId, MatrixNetwork, Micros, Network, PlanetLabParams, RoutedNetwork,
};
use rekey_nice::{NiceHierarchy, NiceParams};
use rekey_proto::{AssignParams, Group, GroupConfig};
use rekey_sim::{seeded_rng, SimRng};
use rekey_table::PrimaryPolicy;
use rekey_tmesh::{metrics::PathMetrics, Source};

use crate::output::{ranked_mean, ranked_quantile};

/// The two evaluation topologies of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The PlanetLab all-pairs RTT matrix (synthesised; see DESIGN.md).
    PlanetLab,
    /// The GT-ITM-style transit-stub topology (≈5000 routers, ≈13000
    /// links).
    GtItm,
}

/// A network substrate of either kind.
#[derive(Debug)]
pub enum AnyNet {
    /// RTT-matrix substrate.
    Matrix(MatrixNetwork),
    /// Router-graph substrate.
    Routed(RoutedNetwork),
}

impl Network for AnyNet {
    fn host_count(&self) -> usize {
        match self {
            AnyNet::Matrix(n) => n.host_count(),
            AnyNet::Routed(n) => n.host_count(),
        }
    }
    fn rtt(&self, a: HostId, b: HostId) -> Micros {
        match self {
            AnyNet::Matrix(n) => n.rtt(a, b),
            AnyNet::Routed(n) => n.rtt(a, b),
        }
    }
    fn gateway_rtt(&self, a: HostId, b: HostId) -> Micros {
        match self {
            AnyNet::Matrix(n) => n.gateway_rtt(a, b),
            AnyNet::Routed(n) => n.gateway_rtt(a, b),
        }
    }
    fn one_way(&self, a: HostId, b: HostId) -> Micros {
        match self {
            AnyNet::Matrix(n) => n.one_way(a, b),
            AnyNet::Routed(n) => n.one_way(a, b),
        }
    }
    fn path_links(&self, a: HostId, b: HostId) -> Option<Vec<LinkId>> {
        match self {
            AnyNet::Matrix(n) => n.path_links(a, b),
            AnyNet::Routed(n) => n.path_links(a, b),
        }
    }
    fn link_count(&self) -> usize {
        match self {
            AnyNet::Matrix(n) => n.link_count(),
            AnyNet::Routed(n) => n.link_count(),
        }
    }
}

/// PlanetLab parameters scaled so the matrix has exactly `hosts` hosts,
/// keeping the paper's continental proportions.
pub fn planetlab_params(hosts: usize) -> PlanetLabParams {
    let mut params = PlanetLabParams::default();
    let total: usize = params.continent_hosts.iter().sum();
    if hosts != total {
        let mut scaled: Vec<usize> = params
            .continent_hosts
            .iter()
            .map(|&c| (c * hosts / total).max(1))
            .collect();
        let mut sum: usize = scaled.iter().sum();
        while sum < hosts {
            scaled[0] += 1;
            sum += 1;
        }
        while sum > hosts {
            let i = scaled.iter().position(|&c| c > 1).expect("positive counts");
            scaled[i] -= 1;
            sum -= 1;
        }
        params.continent_hosts = scaled;
    }
    params
}

/// Builds a substrate with `hosts` hosts.
pub fn build_net(topology: Topology, hosts: usize, rng: &mut SimRng) -> AnyNet {
    match topology {
        Topology::PlanetLab => AnyNet::Matrix(MatrixNetwork::synthetic_planetlab(
            &planetlab_params(hosts),
            rng,
        )),
        Topology::GtItm => {
            let topo = generate(&GtItmParams::default(), rng);
            AnyNet::Routed(RoutedNetwork::random_attachment(
                topo.into_graph(),
                hosts,
                rng,
            ))
        }
    }
}

/// A grown group plus the substrate and join order it was grown on.
pub struct GroupBuild {
    /// The network substrate.
    pub net: AnyNet,
    /// The group after all joins.
    pub group: Group,
    /// Hosts in join order (users only; the server is the last host).
    pub join_order: Vec<HostId>,
    /// The key server's host.
    pub server: HostId,
}

/// Grows a group of `users` members on `topology` via the §3.1 ID
/// assignment protocol, with joins at random times in `[0, interval]` (the
/// figures use 452 s for PlanetLab and 2048 s for GT-ITM).
///
/// `spare_hosts` extra hosts are provisioned on the substrate (at indices
/// `users + 1 ..`) for later churn intervals; pass 0 when no churn follows.
#[allow(clippy::too_many_arguments)]
pub fn grow_group(
    topology: Topology,
    users: usize,
    spare_hosts: usize,
    spec: &IdSpec,
    k: usize,
    policy: PrimaryPolicy,
    assign: AssignParams,
    interval: Micros,
    seed: u64,
) -> GroupBuild {
    let mut rng = seeded_rng(seed);
    let net = build_net(topology, users + 1 + spare_hosts, &mut rng);
    let server = HostId(users);
    let mut group = Group::new(spec, server, k, policy, assign);
    let mut join_order: Vec<HostId> = (0..users).map(HostId).collect();
    join_order.shuffle(&mut rng);
    let mut times: Vec<Micros> = (0..users).map(|_| rng.gen_range(0..=interval)).collect();
    times.sort_unstable();
    for (host, at) in join_order.iter().zip(times) {
        group
            .join(*host, &net, at)
            .expect("ID space is large enough");
    }
    GroupBuild {
        net,
        group,
        join_order,
        server,
    }
}

/// Builds a NICE hierarchy over the same hosts in the same join order
/// ("users follow the same join and leave order in T-mesh and NICE", §4).
pub fn grow_nice(net: &AnyNet, join_order: &[HostId]) -> NiceHierarchy {
    let mut nice = NiceHierarchy::new(NiceParams::default());
    for &h in join_order {
        nice.join(h, net);
    }
    nice
}

/// One metric's rank-averaged series for the two schemes, with the
/// 95-percentile across runs per rank (the paper's Fig. 6 vertical bars).
#[derive(Debug, Clone)]
pub struct SchemeSeries {
    /// T-mesh values, rank-averaged across runs.
    pub tmesh: Vec<f64>,
    /// NICE values, rank-averaged across runs.
    pub nice: Vec<f64>,
    /// Per-rank 95-percentile across runs, T-mesh.
    pub tmesh_p95: Vec<f64>,
    /// Per-rank 95-percentile across runs, NICE.
    pub nice_p95: Vec<f64>,
}

/// The three latency metrics of Figs. 6–11.
#[derive(Debug, Clone)]
pub struct LatencyFigure {
    /// User stress (messages forwarded).
    pub stress: SchemeSeries,
    /// Application-layer delay in milliseconds.
    pub delay_ms: SchemeSeries,
    /// Relative delay penalty.
    pub rdp: SchemeSeries,
}

/// Configuration of one latency figure.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Evaluation topology.
    pub topology: Topology,
    /// Number of user joins.
    pub users: usize,
    /// Independent simulation runs to average over.
    pub runs: usize,
    /// `false` ⇒ rekey path (sender = key server); `true` ⇒ data path
    /// (sender = random user).
    pub data_path: bool,
    /// ID-space shape.
    pub spec: IdSpec,
    /// Neighbor-table entry capacity.
    pub k: usize,
    /// ID assignment parameters.
    pub assign: AssignParams,
    /// Join-time window.
    pub interval: Micros,
    /// Base RNG seed.
    pub seed: u64,
}

impl LatencyConfig {
    /// The paper's defaults for a given topology/size/path.
    pub fn paper(topology: Topology, users: usize, data_path: bool) -> LatencyConfig {
        LatencyConfig {
            topology,
            users,
            runs: 100,
            data_path,
            spec: IdSpec::PAPER,
            k: 4,
            assign: AssignParams::paper(),
            interval: match topology {
                Topology::PlanetLab => 452_000_000,
                Topology::GtItm => 2_048_000_000,
            },
            seed: 20050607,
        }
    }
}

/// Runs a latency figure: grows the group and the NICE hierarchy per run,
/// multicasts once from the configured sender in each scheme, and
/// rank-averages user stress / application-layer delay / RDP.
pub fn latency_figure(cfg: &LatencyConfig) -> LatencyFigure {
    let mut stress_t = Vec::new();
    let mut stress_n = Vec::new();
    let mut delay_t = Vec::new();
    let mut delay_n = Vec::new();
    let mut rdp_t = Vec::new();
    let mut rdp_n = Vec::new();

    for run in 0..cfg.runs {
        let seed = cfg.seed.wrapping_add(run as u64);
        let build = grow_group(
            cfg.topology,
            cfg.users,
            0,
            &cfg.spec,
            cfg.k,
            PrimaryPolicy::SmallestRtt,
            cfg.assign.clone(),
            cfg.interval,
            seed,
        );
        let nice = grow_nice(&build.net, &build.join_order);
        let mesh = build.group.tmesh();
        let mut rng = seeded_rng(seed ^ 0x5eed);

        let (source, nice_out) = if cfg.data_path {
            let sender_idx = rng.gen_range(0..build.group.len());
            let sender_host = build.group.members()[sender_idx].host;
            (
                Source::User(sender_idx),
                nice.data_multicast(&build.net, sender_host),
            )
        } else {
            (
                Source::Server,
                nice.rekey_multicast(&build.net, build.server),
            )
        };
        let outcome = mesh.multicast(&build.net, source);
        outcome.exactly_once().expect("Theorem 1");
        let metrics = PathMetrics::from_outcome(&mesh, &build.net, &outcome);
        let sender_host = mesh.host_of(source);

        stress_t.push(metrics.stress.iter().map(|&s| s as f64).collect());
        delay_t.push(
            metrics
                .delay
                .iter()
                .flatten()
                .map(|&d| d as f64 / 1000.0)
                .collect(),
        );
        rdp_t.push(metrics.rdp.iter().flatten().copied().collect());

        let mut sn = Vec::new();
        let mut dn = Vec::new();
        let mut rn = Vec::new();
        for m in build.group.members() {
            sn.push(f64::from(nice_out.user_stress(m.host)));
            if let Some(d) = nice_out.delivery(m.host) {
                dn.push(d.arrival as f64 / 1000.0);
                let unicast = build.net.one_way(sender_host, m.host).max(1);
                rn.push(d.arrival as f64 / unicast as f64);
            }
        }
        stress_n.push(sn);
        delay_n.push(dn);
        rdp_n.push(rn);
    }

    let series = |t: &[Vec<f64>], n: &[Vec<f64>]| SchemeSeries {
        tmesh: ranked_mean(t),
        nice: ranked_mean(n),
        tmesh_p95: ranked_quantile(t, 0.95),
        nice_p95: ranked_quantile(n, 0.95),
    };
    LatencyFigure {
        stress: series(&stress_t, &stress_n),
        delay_ms: series(&delay_t, &delay_n),
        rdp: series(&rdp_t, &rdp_n),
    }
}

/// Churn plan for the rekey-cost and bandwidth figures (Figs. 12–13).
#[derive(Debug, Clone, Copy)]
pub struct ChurnPlan {
    /// Initial group size (1024 in the paper).
    pub initial: usize,
    /// Joins in the measured rekey interval.
    pub joins: usize,
    /// Leaves in the measured rekey interval.
    pub leaves: usize,
}

/// Applies one churn interval to a grown group: `plan.leaves` random
/// current members leave and `plan.joins` fresh spare hosts join (IDs via
/// the assignment protocol; `next_host` must start past the server host).
/// Returns `(joined_ids, left_ids)`.
pub fn rekey_message_for_churn(
    group: &mut Group,
    net: &AnyNet,
    plan: &ChurnPlan,
    next_host: &mut usize,
    rng: &mut SimRng,
) -> (Vec<rekey_id::UserId>, Vec<rekey_id::UserId>) {
    let mut leave_ids = Vec::with_capacity(plan.leaves);
    for _ in 0..plan.leaves {
        let pick = rng.gen_range(0..group.len());
        let id = group.members()[pick].id;
        group.leave(&id, net).expect("member exists");
        leave_ids.push(id);
    }
    let mut join_ids = Vec::with_capacity(plan.joins);
    for _ in 0..plan.joins {
        let host = HostId(*next_host);
        *next_host += 1;
        let out = group.join(host, net, *next_host as u64).expect("space");
        join_ids.push(out.id);
    }
    (join_ids, leave_ids)
}

/// Parses `--runs N` / `--users N` style overrides from the command line.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Fixture for the sharded million-member runtime sweep: a [`GridNetwork`]
/// with one host per member plus the server, a 5-digit hexadecimal ID
/// space (16⁵ ≈ 1.05 M ids) at K = 1, a leaves-only churn plan (two
/// interval windows, four departures each, handles spread across the
/// group), and the finish time that closes the second churned interval.
///
/// The substrate is a delay grid rather than an RTT matrix because an
/// all-pairs matrix over 10⁶ hosts is 4 TB; the grid answers delay
/// queries in O(1) from coordinates and guarantees the positive minimum
/// cross-host delay ([`GridNetwork::min_one_way`]) the sharded executor's
/// window invariant needs.
pub fn mega_runtime_fixture(
    members: usize,
) -> (GridNetwork, GroupConfig, Vec<(u64, usize)>, u64, Micros) {
    const SEC: u64 = 1_000_000;
    const PERIOD: u64 = 10 * SEC;
    let net = GridNetwork::with_defaults(members + 1);
    let window = net.min_one_way();
    let spec = IdSpec::new(5, 16).expect("valid spec");
    assert!(
        (members as u64) <= spec.id_space(),
        "the 16^5 ID space seats at most {} members",
        spec.id_space()
    );
    let config = GroupConfig::for_spec(&spec).k(1).seed(0xC4C4);
    // Two churned intervals, four leaves each; handles are spread by
    // fixed fractions so departures hit distinct level-1 subtrees.
    let spread = [members / 7, members / 3, members / 2 + 1, members - 2];
    let mut leaves: Vec<(u64, usize)> = Vec::new();
    for (i, &h) in spread.iter().enumerate() {
        leaves.push((2 * SEC + i as u64 * SEC, h));
    }
    for (i, &h) in [members / 5, members / 11 + 2, members / 2 - 3, members - 9]
        .iter()
        .enumerate()
    {
        leaves.push((PERIOD + 2 * SEC + i as u64 * SEC, h));
    }
    let finish = 2 * PERIOD + SEC;
    (net, config, leaves, finish, window)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mega fixture drives the sharded executor end to end at a
    /// thumbnail size: every leave departs, every survivor stays current,
    /// and at least the two churned intervals complete.
    #[test]
    fn mega_fixture_drives_the_sharded_runtime() {
        use rekey_proto::{RuntimeConfig, ShardedGroupRuntime};
        let members = 4096;
        let (net, group, leaves, finish, window) = mega_runtime_fixture(members);
        let config = RuntimeConfig::builder().loss(0.01).seed(1).build();
        let mut rt = ShardedGroupRuntime::bootstrapped(group, config, net, members, 8, window)
            .expect("4096 members fit the 16^5 space");
        assert_eq!(leaves.len(), 8);
        for &(at, handle) in &leaves {
            rt.leave_at(at, handle);
        }
        rt.finish(finish);
        let report = rt.snapshot();
        assert_eq!(report.departures, 8);
        assert_eq!(report.members, members - 8);
        assert!(report.intervals >= 2, "got {} intervals", report.intervals);
        assert!(report.forward_copies > 0);
        let server_interval = rt.server().interval();
        let leavers: Vec<usize> = leaves.iter().map(|&(_, h)| h).collect();
        for handle in (0..members).step_by(97) {
            if leavers.contains(&handle) {
                continue;
            }
            let agent = rt.agent(handle).expect("survivor was welcomed");
            assert_eq!(agent.interval(), server_interval, "member {handle} lags");
        }
    }

    #[test]
    fn planetlab_params_scale_exactly() {
        for hosts in [5, 60, 227, 400] {
            assert_eq!(planetlab_params(hosts).host_count(), hosts);
        }
    }

    #[test]
    fn small_latency_figure_runs() {
        let cfg = LatencyConfig {
            topology: Topology::PlanetLab,
            users: 12,
            runs: 2,
            data_path: false,
            spec: IdSpec::new(3, 8).unwrap(),
            k: 2,
            assign: AssignParams::for_depth(3),
            interval: 1_000_000,
            seed: 7,
        };
        let fig = latency_figure(&cfg);
        assert_eq!(fig.stress.tmesh.len(), 12);
        assert_eq!(fig.rdp.tmesh.len(), 12);
        assert_eq!(fig.rdp.nice.len(), 12);
        // RDP is positive (triangle-inequality violations in measured RTT
        // matrices can push it slightly below 1, as on real PlanetLab).
        assert!(fig.rdp.tmesh.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn data_path_figure_excludes_sender_from_delay() {
        let cfg = LatencyConfig {
            topology: Topology::PlanetLab,
            users: 10,
            runs: 1,
            data_path: true,
            spec: IdSpec::new(3, 8).unwrap(),
            k: 2,
            assign: AssignParams::for_depth(3),
            interval: 1_000_000,
            seed: 9,
        };
        let fig = latency_figure(&cfg);
        assert_eq!(fig.stress.tmesh.len(), 10);
        assert_eq!(fig.delay_ms.tmesh.len(), 9);
        assert_eq!(fig.delay_ms.nice.len(), 9);
    }

    #[test]
    fn churn_keeps_group_size() {
        let mut build = grow_group(
            Topology::PlanetLab,
            16,
            8,
            &IdSpec::new(3, 8).unwrap(),
            2,
            PrimaryPolicy::SmallestRtt,
            AssignParams::for_depth(3),
            1_000_000,
            4,
        );
        let mut next_host = 17;
        let mut rng = seeded_rng(5);
        let plan = ChurnPlan {
            initial: 16,
            joins: 4,
            leaves: 4,
        };
        let (j, l) = rekey_message_for_churn(
            &mut build.group,
            &build.net,
            &plan,
            &mut next_host,
            &mut rng,
        );
        assert_eq!(j.len(), 4);
        assert_eq!(l.len(), 4);
        assert_eq!(build.group.len(), 16);
        build.group.check().expect("still K-consistent");
    }
}
