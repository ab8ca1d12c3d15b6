//! Observability overhead: what `sos-obs` instrumentation costs on the
//! paths it watches.
//!
//! The acceptance gates for the observability layer: attaching a
//! `RunObserver` (registry-backed counters + event journal, spans
//! disabled — the production default) must cost **≤ 5%** wall-clock on
//!
//! * a full 200-bundle sync encounter through the real middleware
//!   (handshake, batched transfer, per-bundle verification), and
//! * a recorded-tape field-study replay through the experiment driver.
//!
//! Both gates are judged on best-of-3 adaptive means (a single mean
//! on a shared runner would flake in both directions), alongside the
//! passive-observation identity check. Micro-costs of each primitive
//! (counter inc, histogram record, journal push, span open/close) are
//! measured too, and everything is written to `BENCH_obs.json` at the
//! workspace root. Set `SOS_BENCH_SMOKE=1` (as CI does) for a
//! few-iteration smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use sos_bench::bench_config;
use sos_bench::emit::{time_mean, Gate, Suite};
use sos_core::middleware::Sos;
use sos_core::routing::SchemeKind;
use sos_core::MessageKind;
use sos_crypto::ca::{CertificateAuthority, Validator};
use sos_crypto::ed25519::SigningKey;
use sos_crypto::x25519::AgreementKey;
use sos_crypto::{DeviceIdentity, UserId};
use sos_experiments::driver::run_study;
use sos_experiments::eviction::encounter;
use sos_experiments::observe::RunObserver;
use sos_experiments::replay::record_field_study_trace;
use sos_experiments::report::{follower_destinations, scheme_traits};
use sos_experiments::scenario::{field_study, field_study_followers};
use sos_net::PeerId;
use sos_obs::journal::ObsEvent;
use sos_obs::{profile, JournalEntry, JournalHandle, Registry};
use sos_sim::SimTime;

/// Bundles moved in the overhead encounter (one full batched session).
const ENCOUNTER_BUNDLES: u64 = 200;

/// The instrumentation overhead gate, as a fraction.
const OVERHEAD_GATE: f64 = 0.05;

/// The shared recorder behind every measurement and the JSON write.
static SUITE: Suite = Suite::new("obs");

fn identity(ca: &mut CertificateAuthority, seed: u8, name: &str) -> DeviceIdentity {
    let signing = SigningKey::from_seed([seed; 32]);
    let agreement = AgreementKey::from_secret([seed.wrapping_add(50); 32]);
    let uid = UserId::from_str_padded(name);
    let cert = ca.issue(uid, name, signing.verifying_key(), *agreement.public(), 0);
    DeviceIdentity::new(
        uid,
        signing,
        agreement,
        cert,
        Validator::new(ca.root_certificate().clone()),
    )
}

/// Per-primitive costs of the observability layer.
fn bench_micro(_c: &mut Criterion) {
    let registry = Registry::new();
    let counter = registry.counter("bench/counter");
    SUITE.measure("micro/counter_inc", || counter.inc());

    let hist = registry.histogram("bench/hist");
    let mut v = 0u64;
    SUITE.measure("micro/histogram_record", || {
        v = v.wrapping_add(997);
        hist.record(v);
    });

    let journal = JournalHandle::new();
    let mut node = 0u32;
    SUITE.measure("micro/journal_push", || {
        node = node.wrapping_add(1);
        journal.push(JournalEntry {
            time: SimTime::from_secs(u64::from(node)),
            node,
            event: ObsEvent::BundleAccept {
                from: 0,
                author: 0xab,
                seq: u64::from(node),
                hops: 1,
                stored: true,
                carried: 1,
            },
        });
    });

    // The production default: spans compiled in, profiler off.
    SUITE.measure("micro/span_disabled", || {
        let _s = profile::span("bench/span");
    });
    profile::set_enabled(true);
    SUITE.measure("micro/span_enabled", || {
        let _s = profile::span("bench/span");
    });
    profile::set_enabled(false);
    let _ = profile::take();
}

/// One full 200-bundle sync encounter through the real middleware,
/// optionally observed. Returns frames exchanged (a determinism probe).
fn encounter_200(obs: Option<&RunObserver>) -> u64 {
    let mut ca = CertificateAuthority::new("Obs Bench Root", [42u8; 32], 0, u64::MAX);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut author = Sos::new(
        PeerId(0),
        identity(&mut ca, 10, "author"),
        SchemeKind::Epidemic,
    );
    let mut subscriber = Sos::new(
        PeerId(1),
        identity(&mut ca, 20, "subscriber"),
        SchemeKind::Epidemic,
    );
    if let Some(o) = obs {
        for (i, node) in [&mut author, &mut subscriber].into_iter().enumerate() {
            node.attach_obs(sos_obs::NodeObs::new(i as u32, o.journal.clone()));
            node.register_metrics(&o.registry, &format!("node{i}/sos"));
        }
    }
    subscriber.subscribe(author.user_id());
    let mut t = SimTime::ZERO;
    for n in 1..=ENCOUNTER_BUNDLES {
        t += sos_sim::SimDuration::from_secs(1);
        author
            .post(MessageKind::Post, n.to_le_bytes().to_vec(), t)
            .expect("post");
    }
    encounter(&mut author, &mut subscriber, t, &mut rng)
}

/// Best-of-3 adaptive means of `f`, each over at least `min_iters`
/// timed iterations.
fn best_of_3<O, F: FnMut() -> O>(min_iters: u64, mut f: F) -> f64 {
    (0..3)
        .map(|_| time_mean(min_iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Gate 1: observer overhead on the 200-bundle encounter.
fn bench_encounter_overhead(_c: &mut Criterion) {
    // Identity first: observation must not change the protocol.
    let blind_frames = encounter_200(None);
    let probe = RunObserver::new();
    assert_eq!(
        encounter_200(Some(&probe)),
        blind_frames,
        "observation changed the encounter's frame count"
    );

    let base = best_of_3(3, || encounter_200(None));
    let instrumented = best_of_3(3, || {
        let obs = RunObserver::new();
        encounter_200(Some(&obs))
    });
    SUITE.record("encounter/uninstrumented_ns", base);
    SUITE.record("encounter/instrumented_ns", instrumented);
    let overhead = instrumented / base - 1.0;
    let gate = OVERHEAD_GATE * 100.0;
    SUITE.gate(
        "encounter/overhead_pct",
        overhead * 100.0,
        Gate::AtMost,
        gate,
    );
    println!(
        "encounter/200_bundles: {} -> {} observed ({:+.2}%; gate <= {:.0}%)",
        sos_bench::emit::pretty_ns(base),
        sos_bench::emit::pretty_ns(instrumented),
        overhead * 100.0,
        gate
    );
}

/// Gate 2: observer overhead on a recorded-tape field-study replay.
fn bench_replay_overhead(_c: &mut Criterion) {
    let cfg = bench_config(SchemeKind::InterestBased);
    let trace = record_field_study_trace(&cfg);

    // Identity first: observed replay is byte-identical to blind replay.
    let blind = run_study(field_study(&cfg, trace.clone()), None);
    let probe = RunObserver::new();
    let observed = run_study(field_study(&cfg, trace.clone()), Some(&probe));
    assert_eq!(
        blind.metrics, observed.metrics,
        "observation changed the replay's measurements"
    );
    assert_eq!(blind.totals, observed.totals);

    let base = best_of_3(3, || {
        run_study(field_study(&cfg, trace.clone()), None)
            .metrics
            .frames_sent
    });
    let instrumented = best_of_3(3, || {
        let obs = RunObserver::new();
        run_study(field_study(&cfg, trace.clone()), Some(&obs))
            .metrics
            .frames_sent
    });
    SUITE.record("replay/uninstrumented_ns", base);
    SUITE.record("replay/instrumented_ns", instrumented);
    let overhead = instrumented / base - 1.0;
    let gate = OVERHEAD_GATE * 100.0;
    SUITE.gate("replay/overhead_pct", overhead * 100.0, Gate::AtMost, gate);
    println!(
        "replay/field_study: {} -> {} observed ({:+.2}%; gate <= {:.0}%)",
        sos_bench::emit::pretty_ns(base),
        sos_bench::emit::pretty_ns(instrumented),
        overhead * 100.0,
        gate
    );
}

/// Gate 3 (PR 9): the replay overhead gate with the provenance-grade
/// journal enabled is the same ≤5% bound — the per-bundle peer-tagged
/// events added for path tracing ride the existing journal, so gate 2
/// already times them; this probe additionally measures what the
/// *post-run* reconstruction costs (timeline merge + DAG build +
/// forensics classification) and checks it is exhaustive. The post-run
/// cost is recorded, not gated — it runs after the experiment, off the
/// hot path.
fn bench_provenance(_c: &mut Criterion) {
    let cfg = bench_config(SchemeKind::InterestBased);
    let trace = record_field_study_trace(&cfg);
    let obs = RunObserver::new();
    run_study(field_study(&cfg, trace), Some(&obs));
    let observation = obs.finish();
    let followers = field_study_followers();
    let destinations = follower_destinations(&followers);
    let traits = scheme_traits(cfg.scheme);

    let forensics = observation.provenance().classify(&destinations, traits);
    assert!(
        forensics.accounts_for_everything(),
        "provenance probe lost bundles"
    );
    SUITE.record(
        "provenance/journal_entries",
        observation.journal.len() as f64,
    );

    let build = best_of_3(3, || observation.provenance());
    SUITE.record("provenance/build_ns", build);
    let provenance = observation.provenance();
    let classify = best_of_3(3, || provenance.classify(&destinations, traits));
    SUITE.record("provenance/classify_ns", classify);
    println!(
        "provenance/post_run: {} build + {} classify over {} journal entries",
        sos_bench::emit::pretty_ns(build),
        sos_bench::emit::pretty_ns(classify),
        observation.journal.len()
    );
}

/// Writes every recorded measurement to `BENCH_obs.json` at the
/// workspace root via the shared emitter (skipped in smoke mode), then
/// judges both gates: one that fails leaves the other's verdict printed.
fn emit_json(_c: &mut Criterion) {
    SUITE.finish("ns_mean (percentages as named)");
}

criterion_group!(
    benches,
    bench_micro,
    bench_encounter_overhead,
    bench_replay_overhead,
    bench_provenance,
    emit_json,
);
criterion_main!(benches);
