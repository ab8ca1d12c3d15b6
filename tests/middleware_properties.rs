//! Property-based integration tests across crate boundaries.

use proptest::prelude::*;
use rand::SeedableRng;
use sos::core::prelude::*;
use sos::experiments::eviction::encounter;
use sos::net::{Advertisement, Frame};
use sos::social::{AlleyOopApp, Cloud};

fn two_apps(seed: u64, scheme: SchemeKind) -> (AlleyOopApp, AlleyOopApp) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cloud = Cloud::new("CA", [1; 32]);
    let a = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(0),
        "alice",
        scheme,
        SimTime::ZERO,
        &mut rng,
    )
    .unwrap();
    let b = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(1),
        "bob",
        scheme,
        SimTime::ZERO,
        &mut rng,
    )
    .unwrap();
    (a, b)
}

/// One encounter: `b` browses `a`'s advertisement, every session runs
/// to quiet, on a fresh RNG seeded 9.
fn pump(a: &mut AlleyOopApp, b: &mut AlleyOopApp, now: SimTime) {
    let mut r = rand::rngs::StdRng::seed_from_u64(9);
    encounter(a.middleware_mut(), b.middleware_mut(), now, &mut r);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever sequence of posts Alice makes, one full sync hands Bob
    /// exactly that sequence, in order, with intact payloads.
    #[test]
    fn sync_transfers_every_post(payloads in prop::collection::vec("[a-zA-Z0-9 ]{0,60}", 1..12)) {
        let (mut alice, mut bob) = two_apps(1, SchemeKind::InterestBased);
        bob.follow(alice.user_id());
        for (i, text) in payloads.iter().enumerate() {
            alice.post(text, SimTime::from_secs(i as u64));
        }
        pump(&mut alice, &mut bob, SimTime::from_secs(100));
        bob.process_events_at(SimTime::from_secs(100));
        let feed = bob.feed();
        prop_assert_eq!(feed.len(), payloads.len());
        // Posts at identical creation times keep number order within the
        // store; compare as multisets by number instead.
        let mut by_number: Vec<(u64, String)> =
            feed.iter().map(|p| (p.id.number, p.text.clone())).collect();
        by_number.sort();
        for (i, (num, text)) in by_number.iter().enumerate() {
            prop_assert_eq!(*num, i as u64 + 1);
            prop_assert_eq!(text, &payloads[i]);
        }
    }

    /// Advertisements always reflect exactly the store summary.
    #[test]
    fn advertisement_matches_store(posts in 0usize..20) {
        let (mut alice, _) = two_apps(2, SchemeKind::Epidemic);
        for i in 0..posts {
            alice.post(&format!("p{i}"), SimTime::from_secs(i as u64));
        }
        let ad = alice.middleware().advertisement(SimTime::from_secs(100));
        if posts == 0 {
            prop_assert!(ad.summary.is_empty());
        } else {
            prop_assert_eq!(ad.latest_for(&alice.user_id()), Some(posts as u64));
        }
    }

    /// Syncing twice is idempotent: no duplicates, no extra transfers.
    #[test]
    fn resync_is_idempotent(posts in 1usize..8) {
        let (mut alice, mut bob) = two_apps(3, SchemeKind::InterestBased);
        bob.follow(alice.user_id());
        for i in 0..posts {
            alice.post(&format!("p{i}"), SimTime::from_secs(i as u64));
        }
        pump(&mut alice, &mut bob, SimTime::from_secs(50));
        bob.process_events_at(SimTime::from_secs(50));
        let received_once = bob.middleware().stats().bundles_received;
        pump(&mut alice, &mut bob, SimTime::from_secs(1000));
        bob.process_events_at(SimTime::from_secs(1000));
        prop_assert_eq!(bob.middleware().stats().bundles_received, received_once);
        prop_assert_eq!(bob.middleware().stats().bundles_duplicate, 0);
        prop_assert_eq!(bob.feed().len(), posts);
    }

    /// Frame codec round-trips arbitrary advertisement contents.
    #[test]
    fn advertisement_frame_roundtrip(
        entries in prop::collection::btree_map("[a-z]{1,10}", 0u64..1_000_000, 0..20),
        peer in 0u32..1000,
    ) {
        let mut ad = Advertisement::new(
            PeerId(peer),
            sos::crypto::UserId::from_str_padded("advertiser"),
        );
        for (name, latest) in &entries {
            ad.insert(sos::crypto::UserId::from_str_padded(name), *latest);
        }
        let frame = Frame::Advertisement(ad);
        let decoded = Frame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Hop counts never decrease along a relay chain.
    #[test]
    fn hops_monotone_along_chain(chain_len in 2usize..5) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut cloud = Cloud::new("CA", [1; 32]);
        let mut apps: Vec<AlleyOopApp> = (0..chain_len)
            .map(|i| AlleyOopApp::sign_up(
                &mut cloud, PeerId(i as u32), &format!("n{i}"),
                SchemeKind::Epidemic, SimTime::ZERO, &mut rng).unwrap())
            .collect();
        let author = apps[0].user_id();
        for app in apps.iter_mut().skip(1) {
            app.follow(author);
        }
        apps[0].post("chain letter", SimTime::ZERO);
        // Relay strictly down the chain: 0→1→2→...
        for i in 1..chain_len {
            let (left, right) = apps.split_at_mut(i);
            pump(&mut left[i - 1], &mut right[0], SimTime::from_secs(i as u64 * 10));
            right[0].process_events_at(SimTime::from_secs(i as u64 * 10));
        }
        for (i, app) in apps.iter().enumerate().skip(1) {
            let feed = app.feed();
            prop_assert_eq!(feed.len(), 1);
            prop_assert_eq!(feed[0].hops, i as u32, "node {} hop count", i);
        }
    }
}
