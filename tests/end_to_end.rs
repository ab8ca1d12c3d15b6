//! Full-stack integration: AlleyOop apps over the SOS middleware over
//! the simulated MPC substrate, driven by the discrete-event driver.

use rand::SeedableRng;
use sos::core::prelude::*;
use sos::experiments::driver::{run_study, Study};
use sos::net::Medium;
use sos::sim::geo::Point;
use sos::sim::mobility::trace::Trajectory;
use sos::sim::{SimDuration, SimTime, World};
use sos::social::AlleyOopApp;

fn sign_up_group(n: usize, scheme: SchemeKind, seed: u64) -> Vec<AlleyOopApp> {
    let handles = (0..n).map(|i| format!("user-{i}"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    AlleyOopApp::sign_up_fleet("Test CA", 1, handles, scheme, &mut rng)
}

/// Two stationary nodes in range: a post propagates within an ad period.
#[test]
fn colocated_pair_delivers_quickly() {
    let mut apps = sign_up_group(2, SchemeKind::InterestBased, 1);
    let alice_uid = apps[0].user_id();
    apps[1].follow(alice_uid);

    let world = World::new(
        vec![
            Trajectory::stationary(Point::new(0.0, 0.0)),
            Trajectory::stationary(Point::new(20.0, 0.0)),
        ],
        60.0,
        SimDuration::from_secs(10),
    );
    let run = run_study(
        Study {
            scheme: SchemeKind::InterestBased,
            seed: 5,
            apps,
            source: world,
            followers: vec![vec![1], vec![]],
            posts: vec![(SimTime::from_secs(10), 0)],
            ad_interval: SimDuration::from_secs(60),
            air: Medium::Radio { infra: false },
            end: SimTime::from_mins(30),
        },
        None,
    );
    let (metrics, apps) = (run.metrics, run.apps);

    assert_eq!(metrics.posts, 1);
    assert_eq!(metrics.delays.len(), 1, "one interested delivery");
    let delay_h = metrics.delays.cdf_all_hours().max().unwrap();
    assert!(delay_h < 0.1, "delivery within minutes, got {delay_h} h");
    assert_eq!(metrics.delays.records()[0].hops, 1);
    assert_eq!(apps[1].feed().len(), 1);
    assert_eq!(metrics.security_alerts, 0);
}

/// Out-of-range nodes never exchange anything.
#[test]
fn isolated_nodes_never_communicate() {
    let mut apps = sign_up_group(2, SchemeKind::Epidemic, 2);
    let a = apps[0].user_id();
    apps[1].follow(a);
    let world = World::new(
        vec![
            Trajectory::stationary(Point::new(0.0, 0.0)),
            Trajectory::stationary(Point::new(5_000.0, 0.0)),
        ],
        60.0,
        SimDuration::from_secs(10),
    );
    let run = run_study(
        Study {
            scheme: SchemeKind::Epidemic,
            seed: 7,
            apps,
            source: world,
            followers: vec![vec![1], vec![]],
            posts: vec![(SimTime::from_secs(5), 0)],
            ad_interval: SimDuration::from_secs(60),
            air: Medium::Radio { infra: false },
            end: SimTime::from_hours(2),
        },
        None,
    );
    let (metrics, apps) = (run.metrics, run.apps);
    assert_eq!(metrics.delays.len(), 0);
    assert_eq!(apps[1].feed().len(), 0);
    assert_eq!(apps[1].middleware().stats().bundles_received, 0);
}

/// The store-carry-forward chain: A meets B, then B travels to C.
/// C gets A's message at two hops without ever meeting A.
#[test]
fn store_carry_forward_two_hops() {
    let mut apps = sign_up_group(3, SchemeKind::Epidemic, 3);
    let a_uid = apps[0].user_id();
    apps[1].follow(a_uid);
    apps[2].follow(a_uid);

    // A fixed at x=0; C fixed at x=2000; B commutes between them.
    let b_traj = Trajectory::new(vec![
        (SimTime::ZERO, Point::new(0.0, 10.0)),
        (SimTime::from_mins(30), Point::new(0.0, 10.0)),
        (SimTime::from_mins(60), Point::new(2_000.0, 10.0)),
        (SimTime::from_mins(120), Point::new(2_000.0, 10.0)),
    ])
    .unwrap();
    let world = World::new(
        vec![
            Trajectory::stationary(Point::new(0.0, 0.0)),
            b_traj,
            Trajectory::stationary(Point::new(2_000.0, 0.0)),
        ],
        60.0,
        SimDuration::from_secs(10),
    );
    let run = run_study(
        Study {
            scheme: SchemeKind::Epidemic,
            seed: 9,
            apps,
            source: world,
            followers: vec![vec![1, 2], vec![], vec![]],
            posts: vec![(SimTime::from_secs(60), 0)],
            ad_interval: SimDuration::from_secs(30),
            air: Medium::Radio { infra: false },
            end: SimTime::from_hours(3),
        },
        None,
    );
    let (metrics, apps) = (run.metrics, run.apps);

    assert_eq!(metrics.delays.len(), 2, "B and C both interested");
    let hops: Vec<u32> = metrics.delays.records().iter().map(|r| r.hops).collect();
    assert!(hops.contains(&1), "B got it directly");
    assert!(hops.contains(&2), "C got it via B: {hops:?}");
    assert_eq!(apps[2].feed().len(), 1);
    assert_eq!(apps[2].feed()[0].hops, 2);
}

/// Mid-transfer disconnection: the receiver re-syncs at the next
/// encounter (the message manager "knows what messages were not
/// transferred").
#[test]
fn interrupted_transfer_resumes_next_encounter() {
    let mut apps = sign_up_group(2, SchemeKind::InterestBased, 4);
    let a_uid = apps[0].user_id();
    apps[1].follow(a_uid);

    // B passes briefly by A twice with a long gap.
    let b_traj = Trajectory::new(vec![
        (SimTime::ZERO, Point::new(5_000.0, 0.0)),
        (SimTime::from_mins(10), Point::new(30.0, 0.0)),
        (SimTime::from_mins(12), Point::new(30.0, 0.0)),
        (SimTime::from_mins(22), Point::new(5_000.0, 0.0)),
        (SimTime::from_mins(60), Point::new(30.0, 0.0)),
        (SimTime::from_mins(75), Point::new(30.0, 0.0)),
        (SimTime::from_mins(85), Point::new(5_000.0, 0.0)),
    ])
    .unwrap();
    let world = World::new(
        vec![Trajectory::stationary(Point::new(0.0, 0.0)), b_traj],
        60.0,
        SimDuration::from_secs(10),
    );
    let run = run_study(
        Study {
            scheme: SchemeKind::InterestBased,
            seed: 31,
            apps,
            source: world,
            followers: vec![vec![1], vec![]],
            // Many posts: some may not fit in the first brief contact.
            posts: (0..20).map(|i| (SimTime::from_secs(30 + i), 0)).collect(),
            ad_interval: SimDuration::from_secs(30),
            air: Medium::Radio { infra: false },
            end: SimTime::from_hours(2),
        },
        None,
    );
    let (metrics, apps) = (run.metrics, run.apps);
    assert_eq!(
        metrics.delays.len(),
        20,
        "all posts eventually delivered across encounters"
    );
    assert_eq!(apps[1].feed().len(), 20);
}

/// Runtime scheme switching mid-simulation is safe.
#[test]
fn scheme_switch_between_encounters() {
    let mut apps = sign_up_group(2, SchemeKind::Direct, 6);
    let a_uid = apps[0].user_id();
    apps[1].follow(a_uid);
    apps[1].middleware_mut().set_scheme(SchemeKind::Epidemic);
    assert_eq!(apps[1].middleware().scheme_kind(), SchemeKind::Epidemic);
    // The store and subscriptions survive the switch.
    assert!(apps[1].following().contains(&a_uid));
}
