//! Pay-per-view broadcast with heavy churn (a motivating application from
//! the paper's introduction), driven end to end by the event-driven group
//! runtime: the key server and every viewer are nodes on one simulated
//! clock. Viewers tune in and out as messages; the periodic rekey fires as
//! a timer; the rekey message travels hop-by-hop over the T-mesh overlay
//! with 1% per-copy loss; viewers that miss an interval NACK the server
//! and recover exactly their related encryptions via unicast.
//!
//! Run with: `cargo run --release --example pay_per_view_churn`

use group_rekeying::id::IdSpec;
use group_rekeying::net::{MatrixNetwork, Network, PlanetLabParams};
use group_rekeying::proto::{ChurnEvent, GroupConfig, RuntimeConfig, ShardedGroupRuntime};
use group_rekeying::sim::seeded_rng;

const SEC: u64 = 1_000_000;

fn main() {
    let params = PlanetLabParams {
        continent_hosts: vec![150, 80, 40, 30], // room for churn
        ..PlanetLabParams::default()
    };
    let net = MatrixNetwork::synthetic_planetlab(&params, &mut seeded_rng(99));
    println!(
        "pay-per-view: {} hosts, 4-digit IDs, K = 4, 10 s rekey intervals, 1% copy loss\n",
        net.host_count()
    );

    let spec = IdSpec::new(4, 8).expect("valid spec");
    let config = GroupConfig::for_spec(&spec).k(4).seed(99);
    let runtime_config = RuntimeConfig::builder().loss(0.01).seed(99).build();
    let mut rt = ShardedGroupRuntime::new(config, runtime_config, net);

    // The audience tunes in during the first interval…
    let audience = 160usize;
    let mut trace: Vec<ChurnEvent> = (0..audience as u64)
        .map(|i| ChurnEvent::join(SEC + i * 50_000))
        .collect();
    // …then churns: every interval from 30 s on, one viewer tunes out and
    // a fresh one tunes in (audience size stays constant).
    let churn_intervals = 12u64;
    for i in 0..churn_intervals {
        let t = 30 * SEC + i * 10 * SEC;
        trace.push(ChurnEvent::leave(t, (i as usize * 13) % audience));
        trace.push(ChurnEvent::join(t + 2 * SEC));
    }
    rt.run_trace(&trace);
    rt.finish(165 * SEC);

    let report = rt.snapshot();
    println!("intervals completed        {:>8}", report.intervals);
    println!(
        "viewers (joined/left/now)  {:>8}",
        format!("{}/{}/{}", report.joins, report.departures, report.members)
    );
    println!("overlay rekey copies       {:>8}", report.forward_copies);
    println!("copies lost (1%)           {:>8}", report.copies_lost);
    println!("NACKs -> unicast recovery  {:>8}", report.nacks);
    println!(
        "recovered encryptions      {:>8}",
        report.recovery_encryptions
    );
    println!(
        "apply delay p50/p95 (ms)   {:>8}",
        format!(
            "{:.0}/{:.0}",
            report.apply_delay_us.p50() as f64 / 1_000.0,
            report.apply_delay_us.p95() as f64 / 1_000.0
        )
    );

    // Access control held: every current viewer decrypts the stream frame
    // sealed under the final group key; tuned-out viewers cannot.
    rt.check_consistency()
        .expect("viewer tables are K-consistent");
    let departed: Vec<usize> = (0..churn_intervals as usize)
        .map(|i| (i * 13) % audience)
        .collect();
    let mut rng = seeded_rng(0xF1);
    let sealer = (0..rt.member_count())
        .find(|h| !departed.contains(h))
        .expect("a viewer survived");
    let frame = rt
        .agent(sealer)
        .expect("surviving viewer has keys")
        .seal_data(b"frame 4711", &mut rng)
        .expect("viewer holds the group key");
    let mut current = 0usize;
    for handle in 0..rt.member_count() {
        if departed.contains(&handle) {
            assert!(
                rt.agent(handle).is_none(),
                "tuned-out viewer {handle} kept its keys"
            );
            continue;
        }
        let viewer = rt.agent(handle).expect("current viewer has keys");
        assert_eq!(
            viewer
                .open_data(&frame)
                .expect("current key opens the frame"),
            b"frame 4711"
        );
        current += 1;
    }
    println!(
        "\nall {current} current viewers decrypt the stream; every tuned-out viewer lost \
         access at the interval boundary (forward/backward secrecy via batch rekeying)."
    );
}
