//! `sync_churn` — the synchronous facade, no driver: bootstrap a group,
//! then intervals of `request_leave` + `request_join`, `end_interval`,
//! `deliver` and `handle_rekey` on every live member. The benchmark makes
//! every layer call itself, so its spans cover the whole interval.

use std::collections::HashMap;
use std::time::Instant;

use super::{Lap, Rep, RepOpts, RING_SAMPLE};
use crate::gen::Gen;
use crate::probes;
use crate::stats::{median, summarize};
use crate::sut;
use crate::sys;

pub struct Size {
    pub members: usize,
    pub depth: usize,
    pub base: u16,
    pub k: usize,
    pub intervals: usize,
    /// Leaves, and as many joins, per interval.
    pub churn: usize,
}

const FULL: Size = Size {
    members: 4096,
    depth: 4,
    base: 16,
    k: 2,
    intervals: 4,
    churn: 128,
};

const THUMBNAIL: Size = Size {
    members: 160,
    depth: 4,
    base: 16,
    k: 2,
    intervals: 8,
    churn: 10,
};

impl Size {
    /// The full size, or the 64–256-member one `cargo test` runs.
    pub fn of(thumbnail: bool) -> &'static Size {
        if thumbnail {
            &THUMBNAIL
        } else {
            &FULL
        }
    }
}

pub fn rep(size: &Size, opts: RepOpts<'_>) -> Rep {
    let RepOpts {
        seed,
        tracer: tr,
        probes,
    } = opts;
    let mut rep = Rep::default();
    let mut gen = Gen::new(seed ^ 0x5C_5C_5C);
    let spec = sut::spec(size.depth, size.base);
    let joiners = size.intervals * size.churn;
    let hosts = size.members + joiners;

    // ------------------------------------------------------------- setup
    let setup = tr.enter("setup", "bench", 0);
    let t0 = Instant::now();
    let net = sut::grid_default(hosts + 1);
    // Host placement is the seed's choice: which grid hosts the founding
    // members sit on, which the joiners will arrive from.
    let mut placement: Vec<usize> = (0..hosts).collect();
    gen.shuffle(&mut placement);
    let (mut server, founders) = tr.call("facade.bootstrap", "rekey-proto", 0, || {
        sut::facade_bootstrap(
            sut::group_config(&spec, size.k, seed),
            &placement[..size.members],
            &net,
        )
    });
    let mut agents: Vec<Option<sut::Agent>> = (0..hosts).map(|_| None).collect();
    for (i, agent) in founders.into_iter().enumerate() {
        let (_, host) = sut::server_member(&server, i);
        agents[host] = Some(agent);
    }
    rep.setup_s = t0.elapsed().as_secs_f64();
    tr.exit(setup);

    // Shadow key rings of a member sample, fed the same deliveries, so
    // `matches_path` can be checked without reaching into `UserAgent`.
    let mut rings: HashMap<usize, sut::Ring> = (0..size.members.min(RING_SAMPLE))
        .map(|i| {
            let (id, host) = sut::server_member(&server, i);
            (host, sut::ring_new(sut::server_tree(&server), id))
        })
        .collect();

    // ------------------------------------------------------------- drive
    let mut next_joiner = size.members;
    let mut apply_ms: Vec<f64> = Vec::with_capacity(size.members * size.intervals);
    let mut admit_s = 0.0;
    let mut admitted = 0u64;
    let mut encryptions = 0u64;
    let mut received_per_member = 0.0;
    let mut installed = 0u64;
    let mut last_message: Vec<sut::Enc> = Vec::new();
    let (mut leave_us, mut join_us) = (Vec::new(), Vec::new());
    let (mut end_ms, mut deliver_ms, mut handle_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut rekey_ms = Vec::new();
    let drive = tr.enter("drive", "bench", 0);
    for n in 1..=size.intervals as u32 {
        let wall0 = Instant::now();
        let interval = tr.enter("interval", "bench", n);

        let g0 = Instant::now();
        let live = sut::server_member_count(&server);
        // A leave costs more the earlier the member was dealt in (it sits
        // in more tables, and every later member is re-indexed), by two
        // orders of magnitude: leavers are therefore spread evenly over
        // the member list, the seed choosing within each stratum.
        let leavers: Vec<(sut::Id, usize)> = gen
            .stratified(size.churn, live)
            .into_iter()
            .map(|i| {
                let (id, host) = sut::server_member(&server, i);
                (id.clone(), host)
            })
            .collect();
        let mut generator_s = g0.elapsed().as_secs_f64();

        let admit = Lap::start();
        for (id, _) in &leavers {
            let t0 = Instant::now();
            tr.call("group.leave", "rekey-table", n, || {
                sut::server_request_leave(&mut server, id, &net)
            });
            leave_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        for j in 0..size.churn {
            let host = placement[next_joiner + j];
            let now_us = u64::from(n) * 1_000_000 + j as u64;
            let t0 = Instant::now();
            tr.call("group.join", "rekey-table", n, || {
                sut::server_request_join(&mut server, host, &net, now_us)
            });
            join_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let admit = admit.stop();
        admit_s += admit.wall_ms / 1e3;
        admitted += 2 * size.churn as u64;
        next_joiner += size.churn;

        let g1 = Instant::now();
        let mut departed: Vec<sut::Agent> = leavers
            .iter()
            .map(|&(_, host)| {
                rings.remove(&host);
                agents[host].take().expect("leavers were live")
            })
            .collect();
        generator_s += g1.elapsed().as_secs_f64();

        let rekey = Lap::start();
        let outcome = tr.call("facade.end_interval", "rekey-proto", n, || {
            sut::server_end_interval(&mut server)
        });
        end_ms.push(rekey.wall_ms());
        let number = sut::outcome_interval(&outcome);
        tr.call("facade.welcome", "rekey-proto", n, || {
            for (host, agent) in sut::outcome_welcome_agents(&outcome, &server) {
                agents[host] = Some(agent);
            }
        });
        let t0 = Instant::now();
        let delivery = tr.call("facade.deliver", "rekey-proto", n, || {
            sut::server_deliver(&server, &net, &outcome)
        });
        deliver_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let live = sut::server_member_count(&server);
        let t0 = Instant::now();
        let handle = tr.enter("facade.handle_rekey", "rekey-proto", n);
        for i in 0..live {
            let (_, host) = sut::server_member(&server, i);
            let agent = agents[host].as_mut().expect("every member has an agent");
            installed += sut::agent_handle_delivery(agent, number, &delivery, i) as u64;
            apply_ms.push(rekey.wall_ms());
        }
        tr.exit(handle);
        handle_us.push(t0.elapsed().as_secs_f64() * 1e6 / live as f64);
        let rekey = rekey.stop();
        rekey_ms.push(rekey.wall_ms);
        rep.costs.push(admit + rekey);

        // Checks, outside every timed section.
        let g2 = Instant::now();
        encryptions += sut::outcome_cost(&outcome) as u64;
        received_per_member += sut::delivery_total_received(&delivery) as f64 / live as f64;
        for i in 0..live {
            let (_, host) = sut::server_member(&server, i);
            if let Some(ring) = rings.get_mut(&host) {
                sut::ring_absorb_delivery(ring, &delivery, i);
            }
        }
        // Forward secrecy: an ex-member fed the *whole* message installs
        // nothing and is left without the new group key.
        let message = sut::outcome_encryptions(&outcome);
        for old in &mut departed {
            let got = sut::agent_handle_message(old, number, message);
            let locked_out =
                got == 0 && sut::agent_group_key(old) != sut::server_group_key(&server);
            rep.check(locked_out, || {
                format!("interval {n}: departed member installed {got} keys")
            });
        }
        if n as usize == size.intervals {
            last_message = message.to_vec();
        }
        generator_s += g2.elapsed().as_secs_f64();
        rep.generator_ms.push(generator_s * 1e3);

        tr.exit(interval);
        rep.interval_wall_ms
            .push(wall0.elapsed().as_secs_f64() * 1e3);
    }
    tr.exit(drive);
    rep.set_apply_delays(&apply_ms);

    // ------------------------------------------------------------ finish
    // Nothing is in flight in the synchronous facade.
    let t0 = Instant::now();
    tr.call("finish", "bench", 0, || ());
    rep.finish_s = t0.elapsed().as_secs_f64();
    rep.peak_rss_mib = sys::peak_rss_mib();

    // ------------------------------------------------------------ verify
    let verify = tr.enter("verify", "bench", 0);
    let t0 = Instant::now();
    let live = sut::server_member_count(&server);
    rep.live_members = live as u64;
    let group_key = sut::server_group_key(&server).cloned();
    let mut stale = 0;
    for i in 0..live {
        let (_, host) = sut::server_member(&server, i);
        let holds = agents[host]
            .as_ref()
            .is_some_and(|a| sut::agent_group_key(a) == group_key.as_ref());
        stale += usize::from(!holds);
    }
    rep.attempted += live as u64;
    rep.failed += stale as u64;
    if stale > 0 {
        rep.failures
            .push(format!("{stale} live members lack the group key"));
    }
    let consistent = tr.call("table.check", "rekey-table", 0, || {
        sut::server_check_tables(&server)
    });
    rep.check(consistent, || "Group::check failed".into());
    for ring in rings.values() {
        rep.check(
            sut::ring_matches_path(ring, sut::server_tree(&server)),
            || "a sampled ring does not match its server path".into(),
        );
    }
    rep.verify_s = t0.elapsed().as_secs_f64();
    tr.exit(verify);

    rep.rekey_encryptions = encryptions;
    rep.recv_encryptions_per_member = received_per_member / size.intervals as f64;
    rep.counts = vec![("keytree.encryptions", encryptions as f64)];
    let (leave, join) = (summarize(&leave_us), summarize(&join_us));
    rep.timed = vec![
        ("admit_ops_per_s", admitted as f64 / admit_s),
        ("rekey_ms", median(&rekey_ms)),
        ("group.leave_us", leave.median),
        ("group.leave_max_us", leave.max),
        ("group.join_us", join.median),
        ("group.join_max_us", join.max),
        ("facade.end_interval_ms", median(&end_ms)),
        ("facade.deliver_ms", median(&deliver_ms)),
        ("facade.handle_rekey_us_per_member", median(&handle_us)),
    ];
    rep.fingerprint = format!("{encryptions}/{installed}/{received_per_member}");

    if let Some(m) = probes {
        const PROBE_REPS: usize = 5;
        let root = tr.enter("probes", "bench", 0);
        let mut gen = Gen::new(seed ^ 0x9_0BE5);
        probes::ids(&spec, &mut gen, tr, m);
        // The facade hides the key tree and the mesh it delivers over.
        probes::keytree(&spec, &server, size.churn, PROBE_REPS, &mut gen, tr, m);
        probes::tmesh(&server, size.depth, PROBE_REPS, &mut gen, tr, m);
        probes::transport(&server, &net, &last_message, PROBE_REPS, &mut gen, tr, m);
        tr.exit(root);
    }
    rep
}
