//! Per-layer probes: after the last repetition of a traced run, a
//! workload replays the public calls of the layers on its path on its real
//! end state (its group, tables and key tree, an actual rekey message, the
//! observed queue depth) and times them from outside. Each workload calls
//! only the probes of the layers it exercises; a metric has one definition,
//! native where the workload makes the call itself, else its probe.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::catalog::Metrics;
use crate::gen::Gen;
use crate::stats::median;
use crate::sut;
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::Shares;

/// Batches per micro-probe; each reports the median batch.
const BATCHES: usize = 7;

/// ns per call: median over [`BATCHES`] batches of `calls` calls each.
fn ns_per_call(calls: usize, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn sample_ids(spec: &sut::Spec, gen: &mut Gen) -> Vec<sut::Id> {
    let space = sut::id_space(spec) as usize;
    (0..4096)
        .map(|_| sut::id_from_index(spec, gen.below(space) as u64))
        .collect()
}

/// `table.bootstrap_ms`, `table.rss_bytes_per_member`: `Group::bootstrap`
/// at the workload's size, run before the first repetition while the
/// process is still small, so the resident-set growth is the tables' own.
pub fn tables(
    spec: &sut::Spec,
    k: usize,
    members: usize,
    reps: usize,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let net = sut::grid_default(members + 1);
    let mut times = Vec::with_capacity(reps);
    let mut bytes = Vec::with_capacity(reps);
    for _ in 0..reps {
        let rss0 = sys::rss_bytes();
        let t0 = Instant::now();
        let group = tr.call("probe.table.bootstrap", "rekey-table", 0, || {
            sut::group_bootstrap(spec, k, members, &net)
        });
        times.push(ms_since(t0));
        bytes.push((sys::rss_bytes() - rss0).max(0.0) / sut::group_len(&group) as f64);
    }
    m.set("table.bootstrap_ms", median(&times));
    // The first build grows the heap; later ones reuse what it freed.
    m.set("table.rss_bytes_per_member", bytes[0]);
}

/// `id.*`: the three ID operations every table and transport step makes.
pub fn ids(spec: &sut::Spec, gen: &mut Gen, tr: &mut Tracer, m: &mut Metrics) {
    let space = sut::id_space(spec) as usize;
    let indices: Vec<u64> = (0..4096).map(|_| gen.below(space) as u64).collect();
    let ids: Vec<sut::Id> = indices
        .iter()
        .map(|&i| sut::id_from_index(spec, i))
        .collect();
    tr.call("probe.id", "rekey-id", 0, || {
        m.set(
            "id.from_index_ns",
            ns_per_call(indices.len(), || {
                for &i in &indices {
                    black_box(sut::id_from_index(spec, black_box(i)));
                }
            }),
        );
        let tests = (ids.len() - 1) * (sut::id_digits(&ids[0]).len() + 1);
        m.set(
            "id.prefix_test_ns",
            ns_per_call(tests, || {
                for pair in ids.windows(2) {
                    black_box(sut::id_shared_prefixes(&pair[0], &pair[1]));
                }
            }),
        );
        m.set(
            "id.clone_ns",
            ns_per_call(ids.len(), || {
                for id in &ids {
                    black_box(black_box(id).clone());
                }
            }),
        );
    });
}

/// `crypto.seal_into_ns`, `crypto.open_ns`: one seal and one open.
pub fn crypto(seed: u64, tr: &mut Tracer, m: &mut Metrics) {
    tr.call("probe.crypto", "rekey-crypto", 0, || {
        let mut rng = sut::rng(seed);
        let (wrapping, carried) = sut::key_pair(&mut rng);
        let mut slot = sut::enc_placeholder();
        const CALLS: usize = 20_000;
        m.set(
            "crypto.seal_into_ns",
            ns_per_call(CALLS, || {
                for i in 0..CALLS {
                    sut::enc_seal_into(&mut slot, &wrapping, &carried, i as u64);
                }
                black_box(&slot);
            }),
        );
        m.set(
            "crypto.open_ns",
            ns_per_call(CALLS, || {
                for _ in 0..CALLS {
                    black_box(sut::enc_open(black_box(&slot), &wrapping));
                }
            }),
        );
    });
}

/// `net.delay_query_ns`: the substrate's one-way delay lookup.
pub fn net_delay(net: &sut::Net, hosts: usize, gen: &mut Gen, tr: &mut Tracer, m: &mut Metrics) {
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| (gen.below(hosts), gen.below(hosts)))
        .collect();
    tr.call("probe.net", "rekey-net", 0, || {
        m.set(
            "net.delay_query_ns",
            ns_per_call(pairs.len(), || {
                for &(a, b) in &pairs {
                    black_box(sut::net_one_way(net, black_box(a), b));
                }
            }),
        );
    });
}

/// What [`facade_intervals`] timed, one sample per probe interval.
pub struct FacadeTimes {
    pub end_interval_ms: Vec<f64>,
    pub deliver_ms: Vec<f64>,
    pub handle_rekey_us_per_member: Vec<f64>,
    /// The last probe interval's rekey message.
    pub message: Vec<sut::Enc>,
}

/// Replays the facade's interval on a clone of the run's server, with the
/// workload's own churn: `leaves` + `joins`, `end_interval`, `deliver`,
/// and `handle_rekey` on the sampled `agents`. A driver keeps its interval
/// messages to itself, so this is also where its probes get a real one.
#[allow(clippy::too_many_arguments)]
pub fn facade_intervals(
    server: &mut sut::Server,
    net: &sut::Net,
    agents: &mut Vec<(usize, sut::Agent)>,
    free_hosts: &mut Vec<usize>,
    (leaves, joins): (usize, usize),
    intervals: usize,
    gen: &mut Gen,
    tr: &mut Tracer,
) -> FacadeTimes {
    let mut out = FacadeTimes {
        end_interval_ms: Vec::new(),
        deliver_ms: Vec::new(),
        handle_rekey_us_per_member: Vec::new(),
        message: Vec::new(),
    };
    for _ in 0..intervals {
        let live = sut::server_member_count(server);
        let leavers: Vec<(sut::Id, usize)> = gen
            .distinct(leaves, live)
            .into_iter()
            .map(|i| {
                let (id, host) = sut::server_member(server, i);
                (id.clone(), host)
            })
            .collect();
        for (id, host) in &leavers {
            sut::server_request_leave(server, id, net);
            agents.retain(|(h, _)| h != host);
        }
        for j in 0..joins {
            let host = free_hosts.pop().expect("spare hosts cover the probe joins");
            sut::server_request_join(server, host, net, j as u64);
        }
        let t0 = Instant::now();
        let outcome = tr.call("probe.facade.end_interval", "rekey-proto", 0, || {
            sut::server_end_interval(server)
        });
        out.end_interval_ms.push(ms_since(t0));
        let t0 = Instant::now();
        let delivery = tr.call("probe.facade.deliver", "rekey-proto", 0, || {
            sut::server_deliver(server, net, &outcome)
        });
        out.deliver_ms.push(ms_since(t0));
        let index_of: HashMap<usize, usize> = (0..sut::server_member_count(server))
            .map(|i| (sut::server_member(server, i).1, i))
            .collect();
        let number = sut::outcome_interval(&outcome);
        let t0 = Instant::now();
        let handle = tr.enter("probe.facade.handle_rekey", "rekey-proto", 0);
        for (host, agent) in agents.iter_mut() {
            black_box(sut::agent_handle_delivery(
                agent,
                number,
                &delivery,
                index_of[host],
            ));
        }
        tr.exit(handle);
        out.handle_rekey_us_per_member
            .push(ms_since(t0) * 1e3 / agents.len().max(1) as f64);
        out.message = sut::outcome_encryptions(&outcome).to_vec();
    }
    assert!(
        !out.message.is_empty(),
        "probe churn yields a rekey message"
    );
    out
}

/// `tmesh.*`: the mesh snapshot a delivery starts from and one member's
/// next-hop lookup.
pub fn tmesh(
    server: &sut::Server,
    depth: usize,
    intervals: usize,
    gen: &mut Gen,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let snapshots: Vec<f64> = (0..intervals)
        .map(|_| {
            let t0 = Instant::now();
            black_box(tr.call("probe.tmesh.snapshot", "rekey-tmesh", 0, || {
                sut::server_mesh(server)
            }));
            ms_since(t0)
        })
        .collect();
    m.set("tmesh.snapshot_ms", median(&snapshots));
    let mesh = sut::server_mesh(server);
    let members = sut::mesh_member_count(&mesh);
    let callers: Vec<(usize, usize)> = (0..2048)
        .map(|_| (gen.below(members), gen.below(depth)))
        .collect();
    tr.call("probe.tmesh.next_hops", "rekey-tmesh", 0, || {
        m.set(
            "tmesh.next_hops_ns",
            ns_per_call(callers.len(), || {
                for &(i, level) in &callers {
                    black_box(sut::mesh_user_next_hops(&mesh, i, level));
                }
            }),
        );
    });
}

/// `transport.*`: the split index over a real message, the related-range
/// lookup every forwarding step makes, and one whole transport session.
pub fn transport(
    server: &sut::Server,
    net: &sut::Net,
    message: &[sut::Enc],
    intervals: usize,
    gen: &mut Gen,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let mut maintainer = sut::split_maintainer();
    let advances: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(
                tr.call("probe.transport.split_advance", "rekey-proto", 0, || {
                    sut::split_advance(&mut maintainer, message)
                }),
            );
            ms_since(t0) * 1e3
        })
        .collect();
    m.set("transport.split_advance_us", median(&advances));
    let index = sut::split_advance(&mut maintainer, message);
    let ids = sample_ids(sut::server_spec(server), gen);
    let depth = sut::id_digits(&ids[0]).len();
    let prefixes: Vec<&[u16]> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| &sut::id_digits(id)[..1 + i % depth])
        .collect();
    tr.call("probe.transport.related_ranges", "rekey-proto", 0, || {
        m.set(
            "transport.related_ranges_ns",
            ns_per_call(prefixes.len(), || {
                for prefix in &prefixes {
                    black_box(sut::split_related_total(&index, prefix));
                }
            }),
        );
    });
    let mesh = sut::server_mesh(server);
    let sessions: Vec<f64> = (0..intervals)
        .map(|_| {
            let t0 = Instant::now();
            black_box(tr.call("probe.transport.session", "rekey-proto", 0, || {
                sut::transport_session(&mesh, net, message)
            }));
            ms_since(t0)
        })
        .collect();
    m.set("transport.session_ms", median(&sessions));
}

/// `wire.*` and `udp.{send,recv}_frame_ns`: the server's first forwarding
/// step of a real message — encode, decode, the split encode — and its
/// frames sent over a loopback socket pair.
pub fn wire_and_sockets(
    spec: &sut::Spec,
    server: &sut::Server,
    message: &[sut::Enc],
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let hop_prefixes = sut::mesh_server_hop_prefixes(&sut::server_mesh(server));
    let forwards = sut::wire_forward_msgs(sut::server_interval(server), message, &hop_prefixes);
    let mut buf = Vec::new();
    let mut split_frames: Vec<Vec<u8>> = Vec::new();
    tr.call("probe.wire", "rekey-proto", 0, || {
        m.set(
            "wire.encode_ns_per_msg",
            ns_per_call(forwards.len(), || {
                for msg in &forwards {
                    buf.clear();
                    sut::wire_encode(msg, &mut buf);
                    black_box(&buf);
                }
            }),
        );
        let frames: Vec<Vec<u8>> = forwards
            .iter()
            .map(|msg| {
                let mut frame = Vec::new();
                sut::wire_encode(msg, &mut frame);
                frame
            })
            .collect();
        m.set(
            "wire.decode_ns_per_msg",
            ns_per_call(frames.len(), || {
                for frame in &frames {
                    assert!(
                        sut::wire_decode(black_box(frame), spec),
                        "own frames decode"
                    );
                }
            }),
        );
        m.set(
            "wire.forward_split_ns",
            ns_per_call(forwards.len(), || {
                for msg in &forwards {
                    buf.clear();
                    sut::wire_encode_forward_split(msg, &mut buf);
                    black_box(&buf);
                }
            }),
        );
        split_frames = forwards
            .iter()
            .map(|msg| {
                let mut frame = Vec::new();
                sut::wire_encode_forward_split(msg, &mut frame);
                frame
            })
            .collect();
        let bytes: usize = split_frames.iter().map(Vec::len).sum();
        m.set(
            "wire.bytes_per_forward",
            bytes as f64 / split_frames.len() as f64,
        );
    });

    tr.call("probe.udp", "rekey-net", 0, || {
        // One frame in flight at a time, so nothing is ever dropped.
        let mut pair = sut::udp_pair().expect("loopback sockets bind");
        let (mut send_ns, mut recv_ns) = (Vec::new(), Vec::new());
        for i in 0..4000 {
            let frame = &split_frames[i % split_frames.len()];
            let payload = &frame[..frame.len().min(sut::UDP_MAX_PAYLOAD)];
            let t0 = Instant::now();
            let sent = sut::udp_send_frame(&mut pair, payload);
            send_ns.push(t0.elapsed().as_nanos() as f64);
            let t0 = Instant::now();
            let got = sut::udp_recv_frame(&mut pair);
            recv_ns.push(t0.elapsed().as_nanos() as f64);
            assert!(
                sent && got == Some(payload.len()),
                "loopback pair lost a frame"
            );
        }
        m.set("udp.send_frame_ns", median(&send_ns));
        m.set("udp.recv_frame_ns", median(&recv_ns));
    });
}

/// `sim.schedule_pop_ns`: the event queue held at the run's peak depth —
/// pop one, schedule one.
pub fn scheduler(queue_depth: usize, gen: &mut Gen, tr: &mut Tracer, m: &mut Metrics) {
    tr.call("probe.sim", "rekey-sim", 0, || {
        let depth = queue_depth.clamp(64, 2_000_000);
        let mut sched = sut::sched_new();
        for i in 0..depth {
            sut::sched_schedule_at(&mut sched, gen.below(10_000_000) as u64, i as u64);
        }
        const CALLS: usize = 100_000;
        let delays: Vec<u64> = (0..CALLS)
            .map(|_| 1 + gen.below(10_000_000) as u64)
            .collect();
        m.set(
            "sim.schedule_pop_ns",
            ns_per_call(CALLS, || {
                for &delay in &delays {
                    let (_, event) = sut::sched_pop(&mut sched).expect("queue stays full");
                    let at = sut::sched_now(&sched) + delay;
                    sut::sched_schedule_at(&mut sched, at, event);
                }
            }),
        );
    });
}

/// `metrics.hist_record_ns`: one histogram record, the call every applied
/// rekey makes.
pub fn hist_record(gen: &mut Gen, tr: &mut Tracer, m: &mut Metrics) {
    tr.call("probe.metrics", "rekey-metrics", 0, || {
        let values: Vec<u64> = (0..100_000).map(|_| gen.below(5_000_000) as u64).collect();
        let mut hist = sut::local_hist();
        m.set(
            "metrics.hist_record_ns",
            ns_per_call(values.len(), || {
                for &v in &values {
                    sut::local_hist_record(&mut hist, black_box(v));
                }
            }),
        );
        black_box(sut::hist_count(&sut::local_hist_snapshot(&hist)));
    });
}

/// The `keytree.*` timings where a facade hides the key tree: replays
/// `batch_rekey`, the welcome's path-key walk and `KeyRing::absorb` on a
/// clone of the server's tree, with the workload's churn per interval.
pub fn keytree(
    spec: &sut::Spec,
    server: &sut::Server,
    ops: usize,
    intervals: usize,
    gen: &mut Gen,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    const RING_SAMPLE: usize = 256;
    let mut tree = sut::server_tree(server).clone();
    let live = sut::server_member_count(server);
    let mut members: Vec<sut::Id> = (0..live)
        .map(|i| sut::server_member(server, i).0.clone())
        .collect();
    // The first members keep a ring and never leave; the rest churn.
    let sampled = RING_SAMPLE.min(live / 2);
    let mut rings: Vec<sut::Ring> = members[..sampled]
        .iter()
        .map(|id| sut::ring_new(&tree, id))
        .collect();
    let mut arena = sut::arena_new();
    let mut rng = sut::rng(gen.next_u64());
    let space = sut::id_space(spec) as usize;
    let (mut rekey_ms, mut seal_ms, mut path_us, mut absorb_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..intervals {
        let mut positions: Vec<usize> = gen
            .distinct(ops, members.len() - sampled)
            .into_iter()
            .map(|p| p + sampled)
            .collect();
        positions.sort_unstable_by(|a, b| b.cmp(a));
        let leaves: Vec<sut::Id> = positions
            .into_iter()
            .map(|p| members.swap_remove(p))
            .collect();
        let mut joins: Vec<sut::Id> = Vec::with_capacity(ops);
        while joins.len() < ops {
            let id = sut::id_from_index(spec, gen.below(space) as u64);
            if !sut::tree_contains(&tree, &id) && !joins.contains(&id) && !leaves.contains(&id) {
                joins.push(id);
            }
        }
        let t0 = Instant::now();
        let batch = tr.call("probe.keytree.batch_rekey", "rekey-keytree", 0, || {
            sut::tree_batch_rekey(&mut tree, &joins, &leaves, &mut rng, &mut arena)
        });
        rekey_ms.push(ms_since(t0));
        seal_ms.push(sut::batch_seal_nanos(&batch) as f64 / 1e6);

        let t0 = Instant::now();
        tr.call("probe.keytree.path_keys", "rekey-keytree", 0, || {
            for id in &joins {
                black_box(sut::tree_path_key_count(&tree, id));
            }
        });
        path_us.push(ms_since(t0) * 1e3 / ops as f64);

        let message = sut::batch_encryptions(&batch);
        let shares = Shares::split(message, &members[..sampled]);
        let t0 = Instant::now();
        let absorb = tr.enter("probe.keytree.absorb", "rekey-keytree", 0);
        for (m, ring) in rings.iter_mut().enumerate() {
            black_box(sut::ring_absorb(ring, shares.of(m)));
        }
        tr.exit(absorb);
        absorb_us.push(ms_since(t0) * 1e3 / sampled.max(1) as f64);
        members.extend(joins);
    }
    assert!(
        rings.iter().all(|r| sut::ring_matches_path(r, &tree)),
        "probe rings follow the probe tree"
    );
    let (rekey, seal) = (median(&rekey_ms), median(&seal_ms));
    m.set("keytree.batch_rekey_ms", rekey);
    m.set("keytree.seal_ms", seal);
    m.set("keytree.derive_ms", rekey - seal);
    m.set("keytree.path_keys_us", median(&path_us));
    m.set("keytree.absorb_us_per_member", median(&absorb_us));
}
