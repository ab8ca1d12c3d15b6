//! Failure injection across the full stack: lossy radios, mid-transfer
//! mobility breaks, hostile peers and store pressure — the system must
//! degrade gracefully, never corrupt state, and recover at the next
//! encounter (§III-C: the message manager "knows what messages were not
//! transferred").

use rand::SeedableRng;
use sos::core::prelude::*;
use sos::core::{Sos, SosConfig};
use sos::experiments::driver::{run_study, Study};
use sos::experiments::eviction::encounter;
use sos::experiments::scenario::{run_field_study, small_test_config};
use sos::net::Medium;
use sos::obs::{author_tag, GlobalTimeline, JournalHandle, NodeObs, Provenance};
use sos::sim::geo::Point;
use sos::sim::mobility::trace::Trajectory;
use sos::sim::{SimDuration, SimTime, World};
use sos::social::{AlleyOopApp, Cloud};
use std::collections::BTreeSet;

fn sign_up_group(n: usize, scheme: SchemeKind, seed: u64) -> Vec<AlleyOopApp> {
    let handles = (0..n).map(|i| format!("user-{i}"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    AlleyOopApp::sign_up_fleet("Test CA", 1, handles, scheme, &mut rng)
}

/// The field study runs over lossy links (the bearers that carry its
/// frames: peer-to-peer WiFi 1 %, infrastructure WiFi 0.5 % frame loss);
/// losses must occur *and* not prevent delivery.
#[test]
fn frame_loss_happens_and_is_survivable() {
    let outcome = run_field_study(&small_test_config(5, SchemeKind::InterestBased));
    assert!(
        outcome.metrics.frames_lost > 0,
        "the link model must actually drop frames"
    );
    assert!(
        outcome.metrics.delays.len() > 10,
        "deliveries must still happen: {}",
        outcome.metrics.delays.len()
    );
    // Losses are a small fraction of traffic (sanity on the loss model).
    let loss_rate = outcome.metrics.frames_lost as f64 / outcome.metrics.frames_sent as f64;
    assert!(loss_rate < 0.05, "loss rate {loss_rate} implausible");
}

/// A contact so short that the sync cannot complete: no corruption, and
/// the next (long) contact finishes the job.
#[test]
fn flapping_contact_recovers() {
    let mut apps = sign_up_group(2, SchemeKind::InterestBased, 7);
    let author = apps[0].user_id();
    apps[1].follow(author);

    // B blips in and out of range every couple of minutes, then settles
    // next to A.
    let mut waypoints = Vec::new();
    for k in 0..10u64 {
        let base = k * 240;
        waypoints.push((SimTime::from_secs(base), Point::new(5_000.0, 0.0)));
        waypoints.push((SimTime::from_secs(base + 100), Point::new(30.0, 0.0)));
        waypoints.push((SimTime::from_secs(base + 130), Point::new(30.0, 0.0)));
        waypoints.push((SimTime::from_secs(base + 230), Point::new(5_000.0, 0.0)));
    }
    waypoints.push((SimTime::from_secs(3000), Point::new(30.0, 0.0)));
    waypoints.push((SimTime::from_hours(2), Point::new(30.0, 0.0)));
    let world = World::new(
        vec![
            Trajectory::stationary(Point::new(0.0, 0.0)),
            Trajectory::new(waypoints).unwrap(),
        ],
        60.0,
        SimDuration::from_secs(10),
    );
    let run = run_study(
        Study {
            scheme: SchemeKind::InterestBased,
            seed: 3,
            apps,
            source: world,
            followers: vec![vec![1], vec![]],
            posts: (0..50).map(|i| (SimTime::from_secs(10 + i), 0)).collect(),
            ad_interval: SimDuration::from_secs(45),
            air: Medium::Radio { infra: false },
            end: SimTime::from_hours(2),
        },
        None,
    );
    let (metrics, apps) = (run.metrics, run.apps);
    assert_eq!(metrics.delays.len(), 50, "all posts delivered eventually");
    assert_eq!(apps[1].feed().len(), 50);
    assert_eq!(metrics.security_alerts, 0);
}

/// Store pressure: a relay capped at five bundles browses a peer with
/// thirty posts under the same CA. It evicts the oldest carried gossip,
/// keeps every post of its own, and its record breaks no invariant.
#[test]
fn store_pressure_keeps_node_functional() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let mut cloud = Cloud::new("Test CA", [1; 32]);
    let mut sign_up = |peer, handle| {
        let scheme = SchemeKind::Epidemic;
        AlleyOopApp::sign_up(
            &mut cloud,
            PeerId(peer),
            handle,
            scheme,
            SimTime::ZERO,
            &mut rng,
        )
        .unwrap()
    };
    let mut alice = sign_up(0, "alice");
    let relay_app = sign_up(1, "relay");
    let mut relay = Sos::with_config(
        PeerId(1),
        relay_app.middleware().identity().clone(),
        SchemeKind::Epidemic,
        SosConfig {
            max_stored_bundles: Some(5),
            ..SosConfig::default()
        },
    );
    let journal = JournalHandle::new();
    alice
        .middleware_mut()
        .attach_obs(NodeObs::new(0, journal.clone()));
    relay.attach_obs(NodeObs::new(1, journal.clone()));
    for i in 0..3u8 {
        let at = SimTime::from_secs(u64::from(i));
        relay.post(MessageKind::Post, vec![i], at).unwrap();
    }
    for i in 0..30 {
        alice.post(&format!("flood {i}"), SimTime::from_secs(10 + i));
    }

    encounter(
        alice.middleware_mut(),
        &mut relay,
        SimTime::from_secs(100),
        &mut rng,
    );
    assert_eq!(relay.maintain(SimTime::from_secs(101)), 0, "already capped");
    let store = relay.store();
    assert_eq!(store.len(), 5);
    assert_eq!(
        store.bundles_after(&relay.user_id(), 0).len(),
        3,
        "own posts kept"
    );
    let carried: Vec<u64> = (store.bundles_after(&alice.user_id(), 0).iter())
        .map(|b| b.message.id.number)
        .collect();
    assert_eq!(carried, [29, 30], "the newest gossip survives");
    assert_eq!(
        relay.stats().bundles_received,
        30,
        "all of it arrived first"
    );

    let journal = journal.snapshot();
    assert_eq!(journal.evicted_total(), 28);
    let provenance = Provenance::build(&GlobalTimeline::merge([&journal]));
    assert_eq!(provenance.violations, []);
    let custody: BTreeSet<(u32, u128, u64)> = (provenance.paths.iter())
        .flat_map(|(key, path)| path.custody.iter().map(|&node| (node, key.author, key.seq)))
        .collect();
    let held: BTreeSet<(u32, u128, u64)> = [(0, alice.middleware()), (1, &relay)]
        .into_iter()
        .flat_map(|(node, sos)| {
            sos.store().iter().map(move |b| {
                let id = b.message.id;
                (node, author_tag(id.author.as_bytes()), id.number)
            })
        })
        .collect();
    assert_eq!(custody, held, "journal custody against the final stores");
}

/// Ten hostile certificates hammering one node: every attempt is
/// rejected, state stays clean, and honest traffic still flows.
#[test]
fn hostile_swarm_rejected_honest_traffic_flows() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut cloud = Cloud::new("Real CA", [1; 32]);
    let mut honest_a = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(0),
        "honest-a",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut rng,
    )
    .unwrap();
    let mut honest_b = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(1),
        "honest-b",
        SchemeKind::Epidemic,
        SimTime::ZERO,
        &mut rng,
    )
    .unwrap();

    let mut attackers: Vec<AlleyOopApp> = (0..10)
        .map(|i| {
            let mut evil_cloud = Cloud::new("Real CA", [100 + i; 32]);
            AlleyOopApp::sign_up(
                &mut evil_cloud,
                PeerId(10 + i as u32),
                &format!("evil-{i}"),
                SchemeKind::Epidemic,
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap()
        })
        .collect();

    // Honest-a has content; every attacker browses its advertisement and
    // invites a session — honest-a, as responder, must reject each
    // foreign certificate at the handshake.
    honest_a.post("bait", SimTime::from_secs(1));
    for attacker in &mut attackers {
        attacker.post("malware", SimTime::from_secs(1));
        encounter(
            honest_a.middleware_mut(),
            attacker.middleware_mut(),
            SimTime::from_secs(2),
            &mut rng,
        );
    }
    assert_eq!(
        honest_a.middleware().store().len(),
        1,
        "only honest-a's own post stored, nothing hostile"
    );
    assert!(honest_a.middleware().stats().security_rejections >= 10);
    assert_eq!(
        honest_a.middleware().session_count(),
        0,
        "no lingering sessions"
    );

    // Honest traffic still flows afterwards.
    honest_b.follow(honest_a.user_id());
    honest_a.post("all good", SimTime::from_secs(10));
    encounter(
        honest_a.middleware_mut(),
        honest_b.middleware_mut(),
        SimTime::from_secs(11),
        &mut rng,
    );
    honest_b.process_events_at(SimTime::from_secs(12));
    assert_eq!(honest_b.feed().len(), 2, "both of honest-a's posts arrive");
}
