//! Quickstart: two devices, one secure opportunistic post.
//!
//! Walks the whole paper pipeline in miniature:
//! 1. the one-time infrastructure requirement (cloud + CA signup),
//! 2. offline peer discovery via plain-text advertisements,
//! 3. the certificate-exchange handshake and encrypted session,
//! 4. interest-based dissemination of a signed post.
//!
//! Run with `cargo run --example quickstart`.

use rand::SeedableRng;
use sos::core::prelude::*;
use sos::net::{Air, Frame};
use sos::social::{AlleyOopApp, Cloud};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // --- One-time infrastructure requirement (paper Fig. 2a) ---------
    // Both users sign up while they still have Internet: keys are
    // generated on-device, the CA issues certificates, and each device
    // stores the CA root. After this, no infrastructure is needed.
    let mut cloud = Cloud::new("AlleyOop Root CA", [42; 32]);
    let mut alice = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(0),
        "alice",
        SchemeKind::InterestBased,
        SimTime::ZERO,
        &mut rng,
    )
    .expect("fresh handle");
    let mut bob = AlleyOopApp::sign_up(
        &mut cloud,
        PeerId(1),
        "bob",
        SchemeKind::InterestBased,
        SimTime::ZERO,
        &mut rng,
    )
    .expect("fresh handle");

    // Bob follows Alice (the subscription drives interest-based routing).
    bob.follow(alice.user_id());
    println!("bob follows {}", alice.user_id());

    // --- Offline from here on -----------------------------------------
    let t = SimTime::from_secs(3600);
    let id = alice.post("greetings from the intermittent network!", t);
    println!("alice posted message #{}", id.number);

    // Alice's device roams, broadcasting a plain-text advertisement:
    // "I carry alice's messages up to #1".
    let ad = alice.middleware().advertisement(t);
    println!(
        "alice advertises: {:?}",
        ad.summary
            .iter()
            .map(|(u, n)| format!("{u}→{n}"))
            .collect::<Vec<_>>()
    );

    // Bob's device sees the advertisement, decides it is interesting
    // (he follows alice and lacks #1), and requests a connection. An
    // instant air carries frames between the two devices until the
    // exchange finishes — in the deployed system Multipeer Connectivity
    // moves these bytes.
    let mut air = Air::instant();
    let to_bob = [(bob.peer_id(), Frame::Advertisement(ad))];
    air.send(t, alice.peer_id(), to_bob);
    let until = t + SimDuration::from_millis(1);
    air.settle(until, |now, src, dst, frame| {
        let target = if dst == alice.peer_id() {
            &mut alice
        } else {
            &mut bob
        };
        target
            .middleware_mut()
            .handle_frame(src, frame, now, &mut rng)
    });

    // The post arrived, was signature-verified against Alice's
    // certificate, and landed in Bob's feed.
    bob.process_events_at(t + SimDuration::from_secs(2));
    for post in bob.feed() {
        println!(
            "bob's feed: [{}#{}] \"{}\" ({} hop(s))",
            post.id.author, post.id.number, post.text, post.hops
        );
    }
    assert_eq!(bob.feed().len(), 1, "delivery must have happened");
    println!(
        "secure session stats: bob received {} bundle(s), {} security rejection(s)",
        bob.middleware().stats().bundles_received,
        bob.middleware().stats().security_rejections
    );
}
