//! `keytree_bulk` — `ModifiedKeyTree` + `RekeyArena` + `KeyRing` only:
//! one batch of joins, then intervals that replace a quarter of the
//! members (the paper's Fig. 12 regime), each followed by
//! `KeyRing::absorb` on every surviving member.

use std::time::Instant;

use super::{Lap, Rep, RepOpts, Shares};
use crate::gen::Gen;
use crate::probes;
use crate::stats::median;
use crate::sut;
use crate::sys;

pub struct Size {
    pub members: usize,
    pub depth: usize,
    pub base: u16,
    pub intervals: usize,
}

const FULL: Size = Size {
    members: 52_000,
    depth: 4,
    base: 16,
    intervals: 6,
};

const THUMBNAIL: Size = Size {
    members: 240,
    depth: 4,
    base: 6,
    intervals: 8,
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

/// Departed rings per interval that are fed the next message whole.
const DEPARTED_SAMPLE: usize = 8;
const MATCH_SAMPLE: usize = 256;

pub fn rep(size: &Size, opts: RepOpts<'_>) -> Rep {
    let RepOpts {
        seed,
        tracer: tr,
        probes,
    } = opts;
    let mut rep = Rep::default();
    let mut gen = Gen::new(seed ^ 0xB0_1C);
    let spec = sut::spec(size.depth, size.base);
    let space = sut::id_space(&spec) as usize;
    let churn = size.members / 4;
    assert!(size.members + churn <= space, "joiners need free IDs");

    // ------------------------------------------------------------- setup
    let setup = tr.enter("setup", "bench", 0);
    let t0 = Instant::now();
    let mut order: Vec<u64> = (0..space as u64).collect();
    gen.shuffle(&mut order);
    let mut members: Vec<sut::Id> = order[..size.members]
        .iter()
        .map(|&i| sut::id_from_index(&spec, i))
        .collect();
    let mut free: Vec<sut::Id> = order[size.members..]
        .iter()
        .map(|&i| sut::id_from_index(&spec, i))
        .collect();
    let mut tree = sut::tree_new(&spec);
    let mut arena = sut::arena_new();
    let mut rng = sut::rng(seed);
    let founding_cost = tr.call("keytree.batch_rekey", "rekey-keytree", 0, || {
        sut::batch_cost(&sut::tree_batch_rekey(
            &mut tree,
            &members,
            &[],
            &mut rng,
            &mut arena,
        ))
    });
    let mut rings: Vec<sut::Ring> = tr.call("keytree.path_keys", "rekey-keytree", 0, || {
        members.iter().map(|id| sut::ring_new(&tree, id)).collect()
    });
    rep.setup_s = t0.elapsed().as_secs_f64();
    tr.exit(setup);

    // ------------------------------------------------------------- drive
    let mut apply_ms: Vec<f64> = Vec::with_capacity(size.members * size.intervals);
    let (mut rekey_s, mut seal_ns, mut absorb_s) = (0.0, 0u64, 0.0);
    let (mut encryptions, mut opened) = (0u64, 0u64);
    // Per interval, as the key-tree probe of `sync_churn` reports them.
    let (mut rekey_ms, mut seal_ms, mut path_us, mut absorb_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let drive = tr.enter("drive", "bench", 0);
    for n in 1..=size.intervals as u32 {
        let wall0 = Instant::now();
        let interval = tr.enter("interval", "bench", n);

        // Generator: who leaves, who joins.
        let g0 = Instant::now();
        let mut positions = gen.distinct(churn, members.len());
        positions.sort_unstable_by(|a, b| b.cmp(a));
        let mut leaves = Vec::with_capacity(churn);
        let mut departed = Vec::with_capacity(DEPARTED_SAMPLE);
        for p in positions {
            leaves.push(members.swap_remove(p));
            let ring = rings.swap_remove(p);
            if departed.len() < DEPARTED_SAMPLE {
                departed.push(ring);
            }
        }
        let joins: Vec<sut::Id> = free.drain(..churn).collect();
        let survivors = members.len();
        let mut generator_s = g0.elapsed().as_secs_f64();

        let lap = Lap::start();
        let batch = tr.call("keytree.batch_rekey", "rekey-keytree", n, || {
            sut::tree_batch_rekey(&mut tree, &joins, &leaves, &mut rng, &mut arena)
        });
        let rekey = lap.stop();
        rekey_s += rekey.wall_ms / 1e3;
        rekey_ms.push(rekey.wall_ms);
        seal_ns += sut::batch_seal_nanos(&batch);
        seal_ms.push(sut::batch_seal_nanos(&batch) as f64 / 1e6);
        encryptions += sut::batch_cost(&batch) as u64;

        // Joiners are welcomed by unicast: their path keys.
        let lap = Lap::start();
        tr.call("keytree.path_keys", "rekey-keytree", n, || {
            rings.extend(joins.iter().map(|id| sut::ring_new(&tree, id)));
        });
        let welcome = lap.stop();
        path_us.push(welcome.wall_ms * 1e3 / churn as f64);

        // Generator: split the message per member — the transport's job
        // in the other workloads.
        let g1 = Instant::now();
        let message = sut::batch_encryptions(&batch);
        let shares = Shares::split(message, &members[..survivors]);
        generator_s += g1.elapsed().as_secs_f64();

        let lap = Lap::start();
        let absorb = tr.enter("keytree.absorb", "rekey-keytree", n);
        for (m, ring) in rings[..survivors].iter_mut().enumerate() {
            opened += sut::ring_absorb(ring, shares.of(m)) as u64;
            apply_ms.push(rekey.wall_ms + welcome.wall_ms + lap.wall_ms());
        }
        tr.exit(absorb);
        let absorbed = lap.stop();
        absorb_s += absorbed.wall_ms / 1e3;
        absorb_us.push(absorbed.wall_ms * 1e3 / survivors as f64);
        rep.costs.push(rekey + welcome + absorbed);

        // Checks, outside every timed section.
        let g2 = Instant::now();
        for old in &mut departed {
            let got = sut::ring_absorb(old, message);
            let locked_out = got == 0 && sut::ring_group_key(old) != sut::tree_group_key(&tree);
            rep.check(locked_out, || {
                format!("interval {n}: departed ring installed {got} keys")
            });
        }
        members.extend(joins);
        free.extend(leaves);
        generator_s += g2.elapsed().as_secs_f64();
        rep.generator_ms.push(generator_s * 1e3);

        tr.exit(interval);
        rep.interval_wall_ms
            .push(wall0.elapsed().as_secs_f64() * 1e3);
    }
    tr.exit(drive);
    rep.live_members = members.len() as u64;
    rep.set_apply_delays(&apply_ms);

    // ------------------------------------------------------------ finish
    let t0 = Instant::now();
    tr.call("finish", "bench", 0, || ());
    rep.finish_s = t0.elapsed().as_secs_f64();
    rep.peak_rss_mib = sys::peak_rss_mib();

    // ------------------------------------------------------------ verify
    let verify = tr.enter("verify", "bench", 0);
    let t0 = Instant::now();
    let group_key = sut::tree_group_key(&tree);
    let stale = rings
        .iter()
        .filter(|r| sut::ring_group_key(r) != group_key)
        .count();
    rep.attempted += rings.len() as u64;
    rep.failed += stale as u64;
    if stale > 0 {
        rep.failures
            .push(format!("{stale} live rings lack the group key"));
    }
    let step = (rings.len() / MATCH_SAMPLE).max(1);
    for ring in rings.iter().step_by(step) {
        rep.check(sut::ring_matches_path(ring, &tree), || {
            "a sampled ring does not match its server path".into()
        });
    }
    rep.verify_s = t0.elapsed().as_secs_f64();
    tr.exit(verify);

    rep.rekey_encryptions = encryptions;
    // No transport here: a member receives what Lemma 3 says it needs.
    rep.recv_encryptions_per_member =
        opened as f64 / (size.intervals * (size.members - churn)) as f64;
    rep.counts = vec![("keytree.encryptions", encryptions as f64)];
    let (rekey, seal) = (median(&rekey_ms), median(&seal_ms));
    rep.timed = vec![
        ("rekey_encryptions_per_s", encryptions as f64 / rekey_s),
        ("member_opens_per_s", opened as f64 / absorb_s),
        ("keytree.batch_rekey_ms", rekey),
        ("keytree.seal_ms", seal),
        ("keytree.derive_ms", rekey - seal),
        ("keytree.path_keys_us", median(&path_us)),
        ("keytree.absorb_us_per_member", median(&absorb_us)),
        (
            "crypto.seals_per_us",
            encryptions as f64 / (seal_ns as f64 / 1e3),
        ),
    ];
    rep.fingerprint = format!("{founding_cost}/{encryptions}/{opened}");

    if let Some(m) = probes {
        let root = tr.enter("probes", "bench", 0);
        probes::crypto(seed, tr, m);
        tr.exit(root);
    }
    rep
}
