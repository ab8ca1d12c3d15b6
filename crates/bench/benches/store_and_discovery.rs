//! The study plane's hot path: the discrete-event driver's schedule,
//! message-store summaries, advertisement construction/matching, and
//! wire-frame sizes.
//!
//! Besides the timings, this bench is the acceptance gate for the
//! ISSUE 20 fast path, as two ratios of single-thread timings taken in
//! one process (so they fire on a 1-core CI runner, smoke runs
//! included):
//!
//! * `study/padded_span_ratio` — one epidemic `driver::Study` on a
//!   10-node 2-day trace, and the same apps, posts and contacts with 28
//!   idle days and a 1-second sentinel contact appended; padded ÷
//!   plain, median of 5 alternating pairs, must be ≤ 1.25. A driver
//!   that wakes every node on every advertisement boundary of the span,
//!   in contact or not, reads 6.8 here (417 ms against 63 ms);
//! * `store/sync_summary_10000_over_200` — `MessageStore::sync_summary`
//!   over one author's contiguous 10 000 bundles ÷ over 200, must be
//!   ≤ 3. Walking every key reads 100–117 (37 µs against 0.37 µs).
//!
//! Every measurement is written to `BENCH_study.json` at the workspace
//! root. Set `SOS_BENCH_SMOKE=1` (as CI does) for a few-iteration smoke
//! run, which still judges both gates.

use criterion::{criterion_group, criterion_main, Criterion};
use sos_bench::emit::{pretty_ns, time_once, Gate, Suite};
use sos_core::message::{Bundle, MessageKind, SosMessage};
use sos_core::routing::SchemeKind;
use sos_core::store::MessageStore;
use sos_core::Sos;
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::ed25519::SigningKey;
use sos_crypto::x25519::AgreementKey;
use sos_crypto::{DeviceIdentity, UserId};
use sos_experiments::driver::{run_study, Study};
use sos_net::{Advertisement, Frame, Medium, PeerId};
use sos_node::provision::{followers_from_trace, post_schedule, provision_apps, RunPlan};
use sos_sim::world::{ContactEvent, ContactPhase};
use sos_sim::{SimDuration, SimTime};
use sos_trace::{generate_social_trace, ContactTrace, SocialTraceConfig};
use std::collections::BTreeMap;

/// Allowed cost of 28 appended idle days on a 2-day study.
const PADDED_SPAN_GATE: f64 = 1.25;

/// Allowed cost of a 50× longer contiguous sequence on `sync_summary`.
const SYNC_SUMMARY_GATE: f64 = 3.0;

/// Alternating repetitions behind the padded-span median.
const STUDY_REPS: usize = 5;

/// The shared recorder behind every `measure` call and the JSON write.
static SUITE: Suite = Suite::new("study");

/// Times `f` (≥ 5 iterations), prints, and records the mean.
fn measure<O, F: FnMut() -> O>(name: &str, f: F) -> f64 {
    SUITE.measure(name, f)
}

/// One author's signing context.
struct Author {
    ca: CertificateAuthority,
    sk: SigningKey,
    cert: sos_crypto::Certificate,
}

fn author() -> Author {
    let mut ca = CertificateAuthority::new("Root", [1; 32], 0, u64::MAX);
    let sk = SigningKey::from_seed([2; 32]);
    let ak = AgreementKey::from_secret([3; 32]);
    let cert = ca.issue(
        UserId::from_str_padded("alice"),
        "Alice",
        sk.verifying_key(),
        *ak.public(),
        0,
    );
    Author { ca, sk, cert }
}

fn make_bundle(by: &Author, author: &str, n: u64) -> Bundle {
    let msg = SosMessage::create(
        &by.sk,
        UserId::from_str_padded(author),
        n,
        SimTime::from_secs(n),
        MessageKind::Post,
        vec![0u8; 140],
    );
    Bundle::new(msg, by.cert.clone())
}

/// A store holding `1..=len` of one author.
fn contiguous_store(by: &Author, len: u64) -> MessageStore {
    let mut store = MessageStore::new();
    for n in 1..=len {
        store.insert(make_bundle(by, "alice", n));
    }
    store
}

fn bench_store(_c: &mut Criterion) {
    let mut by = author();
    let bundles: Vec<Bundle> = (1..=1000).map(|n| make_bundle(&by, "alice", n)).collect();
    measure("store/insert_1000", || {
        let mut store = MessageStore::new();
        for bundle in &bundles {
            store.insert(bundle.clone());
        }
        store.len()
    });

    let mut store = MessageStore::new();
    for author_idx in 0..10 {
        for n in 1..=100u64 {
            store.insert(make_bundle(&by, &format!("user-{author_idx}"), n));
        }
    }
    measure("store/summary_10x100", || {
        std::hint::black_box(&store).summary()
    });
    measure("store/bundles_after_tail", || {
        std::hint::black_box(&store).bundles_after(&UserId::from_str_padded("user-5"), 90)
    });

    // What every received advertisement asks the store. One author,
    // nothing missing: the answer is at the two ends of the map, so the
    // sequence's length must not show.
    let small = contiguous_store(&by, 200);
    let large = contiguous_store(&by, 10_000);
    let at_200 = measure("store/sync_summary_200", || {
        std::hint::black_box(&small).sync_summary()
    });
    let at_10000 = measure("store/sync_summary_10000", || {
        std::hint::black_box(&large).sync_summary()
    });
    let ratio = at_10000 / at_200;
    SUITE.gate(
        "store/sync_summary_10000_over_200",
        ratio,
        Gate::AtMost,
        SYNC_SUMMARY_GATE,
    );
    println!("sync_summary at 10 000 bundles / at 200: {ratio:.2} (gate: <= {SYNC_SUMMARY_GATE})");

    // What every advertisement wake asks the middleware: a node that
    // authored 200 posts builds its (one-entry) dictionary.
    let signing = SigningKey::from_seed([4; 32]);
    let agreement = AgreementKey::from_secret([5; 32]);
    let me = UserId::from_str_padded("poster");
    let cert = by.ca.issue(
        me,
        "Poster",
        signing.verifying_key(),
        *agreement.public(),
        0,
    );
    let root = by.ca.root_certificate().clone();
    let identity = DeviceIdentity::new(me, signing, agreement, cert, Validator::new(root.clone()));
    let mut node = Sos::new(PeerId(0), identity, SchemeKind::Epidemic);
    for n in 0..200u64 {
        node.post(MessageKind::Post, vec![0u8; 140], SimTime::from_secs(n))
            .expect("a 140-byte payload is under the limit");
    }
    measure("store/advertisement_200", || {
        std::hint::black_box(&node).advertisement(SimTime::from_secs(300))
    });

    let validator = Validator::new(root);
    let bundle = make_bundle(&by, "alice", 1);
    measure("bundle/verify", || {
        std::hint::black_box(&bundle)
            .verify(&validator, 10)
            .is_err()
    });

    // A frame's size is computed, not encoded: the `Data` frame a
    // 200-bundle batch travels in.
    let frame = Frame::Data {
        seq: 1,
        ciphertext: vec![0x5a; bundles[..200].iter().map(Bundle::wire_size).sum()],
    };
    let sized = measure("frame/wire_size_data_200", || {
        std::hint::black_box(&frame).wire_size()
    });
    let encoded = measure("frame/encode_data_200", || {
        std::hint::black_box(&frame).encode().len()
    });
    assert_eq!(frame.wire_size(), frame.encode().len());
    SUITE.record("frame/wire_size_over_encode", sized / encoded);
}

fn bench_discovery(_c: &mut Criterion) {
    let mut ad = Advertisement::new(PeerId(1), UserId::from_str_padded("peer"));
    let mut mine = BTreeMap::new();
    for i in 0..100 {
        let user = UserId::from_str_padded(&format!("user-{i:03}"));
        ad.insert(user, i as u64 + 1);
        if i % 2 == 0 {
            mine.insert(user, i as u64); // stale → news
        } else {
            mine.insert(user, i as u64 + 1); // up to date
        }
    }
    measure("discovery/users_with_news_100", || {
        std::hint::black_box(&ad).users_with_news(&mine)
    });

    let frame = Frame::Advertisement(ad);
    measure("discovery/ad_frame_encode_decode_100", || {
        let bytes = frame.encode();
        Frame::decode(std::hint::black_box(&bytes)).unwrap()
    });
}

/// The study a trace gets here: the population and the post list are
/// `plain`'s whichever trace is replayed, so the padded run differs
/// only in what was appended.
fn study(plain: &ContactTrace, replayed: &ContactTrace, plan: &RunPlan) -> Study<ContactTrace> {
    Study {
        scheme: plan.scheme,
        seed: plan.seed,
        apps: provision_apps(plain, plan),
        source: replayed.clone(),
        followers: followers_from_trace(plain),
        posts: post_schedule(plain, plan),
        ad_interval: plan.ad_interval,
        air: Medium::Radio { infra: false },
        end: replayed.end_time(),
    }
}

/// The one-core gate: a study costs what its contacts warrant, not
/// what its span does.
fn bench_padded_span(_c: &mut Criterion) {
    let plain = generate_social_trace(&SocialTraceConfig {
        nodes: 10,
        days: 2,
        communities: 3,
        seed: 11,
        ..SocialTraceConfig::default()
    })
    .expect("valid synthetic trace");
    // Four idle weeks, then two phones in range for one second.
    let sentinel = plain.end_time() + SimDuration::from_hours(28 * 24);
    let mut events: Vec<ContactEvent> = plain.events().collect();
    for (at, phase) in [
        (sentinel, ContactPhase::Up),
        (sentinel + SimDuration::from_secs(1), ContactPhase::Down),
    ] {
        events.push(ContactEvent {
            time: at,
            a: 0,
            b: 1,
            phase,
            distance_m: 5.0,
        });
    }
    let padded = ContactTrace::new(plain.node_count(), None, events).expect("valid padded trace");
    let plan = RunPlan {
        scheme: SchemeKind::Epidemic,
        seed: 11,
        total_posts: 40,
        ad_interval: SimDuration::from_secs(60),
    };

    let mut runs = [Vec::new(), Vec::new()];
    let mut ratios = Vec::new();
    for rep in 0..STUDY_REPS {
        // Alternate which side runs first.
        let mut pair = [0.0; 2];
        for side in [rep % 2, 1 - rep % 2] {
            let replayed = [&plain, &padded][side];
            let provisioned = study(&plain, replayed, &plan);
            let (ns, run) = time_once(|| run_study(provisioned, None));
            assert_eq!(run.metrics.posts, 40);
            assert!(!run.metrics.delays.is_empty(), "nothing was delivered");
            pair[side] = ns;
            runs[side].push(ns);
        }
        ratios.push(pair[1] / pair[0]);
    }
    let median = |mut ns: Vec<f64>| {
        ns.sort_unstable_by(f64::total_cmp);
        ns[ns.len() / 2]
    };
    let [plain_ns, padded_ns] = runs.map(median);
    let ratio = median(ratios);
    println!(
        "study/2_days: {} plain, {} with 28 idle days appended: {ratio:.3}x \
         (median of {STUDY_REPS} pairs; gate: <= {PADDED_SPAN_GATE})",
        pretty_ns(plain_ns),
        pretty_ns(padded_ns),
    );
    SUITE.record("study/plain_2_days_ns", plain_ns);
    SUITE.record("study/padded_30_days_ns", padded_ns);
    SUITE.gate(
        "study/padded_span_ratio",
        ratio,
        Gate::AtMost,
        PADDED_SPAN_GATE,
    );
}

/// Writes every recorded measurement to `BENCH_study.json` at the
/// workspace root via the shared emitter (skipped in smoke mode), then
/// judges both gates: one that fails leaves the other's verdict printed.
fn emit_json(_c: &mut Criterion) {
    SUITE.finish("ns_mean");
}

criterion_group!(
    benches,
    bench_store,
    bench_discovery,
    bench_padded_span,
    emit_json
);
criterion_main!(benches);
