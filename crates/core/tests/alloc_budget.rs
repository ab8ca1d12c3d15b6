//! Exact counts for the bulk encounter: one author's 200 posts served to
//! one fresh subscriber, every frame taken through `Frame::encode` and
//! `Frame::decode` as over the air.
//!
//! Counted:
//! - certificates parsed per encounter: the handshake's two, plus one
//!   per `Bundles` frame (its bundles share one `Arc<Certificate>`), not
//!   one per bundle;
//! - heap allocations made inside `Sos::handle_frame`, per bundle, on
//!   each side.
//!
//! The allocations are counted by this file's global allocator, which
//! hands every call to [`System`] unchanged. The file holds one test, so
//! nothing else runs in the process while it counts.

use rand::SeedableRng;
use sos_core::{MessageKind, SchemeKind, Sos};
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::cert::certificates_parsed;
use sos_crypto::{AgreementKey, DeviceIdentity, SigningKey, UserId};
use sos_net::{Air, Frame, PeerId};
use sos_sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) since start-up.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns what `System` returned; the counter touches no memory it hands
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const POSTS: u64 = 200;

fn node(ca: &mut CertificateAuthority, idx: u32, seed: u8, name: &str) -> Sos {
    let signing = SigningKey::from_seed([seed; 32]);
    let agreement = AgreementKey::from_secret([seed.wrapping_add(50); 32]);
    let uid = UserId::from_str_padded(name);
    let cert = ca.issue(uid, name, signing.verifying_key(), *agreement.public(), 0);
    let validator = Validator::new(ca.root_certificate().clone());
    let identity = DeviceIdentity::new(uid, signing, agreement, cert, validator);
    Sos::new(PeerId(idx), identity, SchemeKind::InterestBased)
}

/// What one encounter cost: certificates parsed anywhere, and the
/// allocations inside each side's `handle_frame` calls.
#[derive(Default)]
struct Encounter {
    certificates_parsed: u64,
    author_allocations: u64,
    subscriber_allocations: u64,
}

/// `subscriber` hears `author`'s advertisement; frames are exchanged
/// over an instant air until it is quiet.
fn encounter(author: &mut Sos, subscriber: &mut Sos, now: SimTime) -> Encounter {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let parsed_before = certificates_parsed();
    let mut cost = Encounter::default();
    let author_id = author.peer_id();
    let ad = Frame::Advertisement(author.advertisement(now));
    let mut air = Air::instant();
    air.send(now, author_id, [(subscriber.peer_id(), ad)]);
    air.settle(now + SimDuration::from_millis(1), |at, from, to, frame| {
        let frame = Frame::decode(&frame.encode()).expect("a frame the peer encoded decodes");
        let (target, spent) = if to == author_id {
            (&mut *author, &mut cost.author_allocations)
        } else {
            (&mut *subscriber, &mut cost.subscriber_allocations)
        };
        let before = ALLOCATIONS.load(Relaxed);
        let replies = target.handle_frame(from, frame, at, &mut rng);
        *spent += ALLOCATIONS.load(Relaxed) - before;
        replies
    });
    cost.certificates_parsed = certificates_parsed() - parsed_before;
    cost
}

#[test]
fn a_bulk_encounter_parses_one_certificate_per_frame_and_allocates_within_budget() {
    let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
    let mut author = node(&mut ca, 0, 10, "author");
    let mut subscriber = node(&mut ca, 1, 20, "subscriber");
    subscriber.subscribe(author.user_id());
    for n in 0..POSTS {
        let payload = vec![n as u8; 140];
        author
            .post(MessageKind::Post, payload, SimTime::from_secs(n))
            .expect("a 140-byte post fits");
    }

    let cost = encounter(&mut author, &mut subscriber, SimTime::from_secs(1_000));
    assert_eq!(subscriber.store().len() as u64, POSTS, "every post arrived");
    assert_eq!(subscriber.stats().security_rejections, 0);

    // Two handshake certificates, then one per `Bundles` frame: the 200
    // bundles pack into three. Parsing every bundle's own copy read 202.
    assert_eq!(cost.certificates_parsed, 2 + 3);

    // Allocations per bundle inside `handle_frame`, the same in debug
    // and release. Serving: 1.335 (267: a body per bundle), 6.345 when
    // every served bundle was cloned and its certificate encoded through
    // two temporary vectors. Receiving: 3.72 on one core, 3.84 on two (a
    // frame verified on a second thread spends 8 on the fork), 5.715 and
    // 5.835 when every bundle parsed its own certificate. The ceilings
    // sit between.
    let per_bundle = |allocations: u64| allocations as f64 / POSTS as f64;
    let (served, received) = (
        per_bundle(cost.author_allocations),
        per_bundle(cost.subscriber_allocations),
    );
    assert!(served <= 2.5, "author: {served:.2} allocations per bundle");
    assert!(
        received <= 4.5,
        "subscriber: {received:.2} allocations per bundle"
    );
}
