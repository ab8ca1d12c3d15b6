//! The observability acceptance gate: instrumentation is passive.
//!
//! PR 4 established record→replay byte-identity as the repo's
//! determinism ground truth. This test re-runs that loop **with the
//! `sos-obs` layer attached** — registry-backed counters adopted,
//! journal scopes recording, span profiler enabled — and asserts the
//! observed replay is byte-identical to the blind one for every
//! routing scheme: same delivered sets, same aggregate stats, same
//! delay records, same frame counters.

use sos::core::routing::SchemeKind;
use sos::engine::{ShardConfig, ShardedContactEngine};
use sos::experiments::driver::run_study;
use sos::experiments::observe::RunObserver;
use sos::experiments::replay::{delivered_set, record_field_study_trace};
use sos::experiments::report::path_report;
use sos::experiments::scenario::{
    field_study, field_study_followers, field_study_trajectories, field_study_world,
    small_test_config,
};
use sos::obs::journal::ObsEvent;
use sos::sim::radio::RadioTech;

#[test]
fn instrumented_replay_is_byte_identical_for_every_scheme() {
    let mut cfg = small_test_config(17, SchemeKind::Epidemic);
    cfg.days = 1;
    cfg.total_posts = 25;
    let trace = record_field_study_trace(&cfg);

    for scheme in SchemeKind::ALL {
        let mut cfg = cfg.clone();
        cfg.scheme = scheme;
        let blind = run_study(field_study(&cfg, trace.clone()), None);
        // Profiling on: the spans around the driver tick, sync, verify,
        // and codec paths must also leave the run untouched.
        let observer = RunObserver::with_profiling();
        let observed = run_study(field_study(&cfg, trace.clone()), Some(&observer));
        let observation = observer.finish();

        assert_eq!(
            delivered_set(&blind),
            delivered_set(&observed),
            "{scheme:?}: instrumentation changed the delivered set"
        );
        assert_eq!(
            blind.totals, observed.totals,
            "{scheme:?}: instrumentation changed the aggregate stats"
        );
        assert_eq!(
            blind.metrics, observed.metrics,
            "{scheme:?}: instrumentation changed the run metrics"
        );

        // And the observation actually observed: counters mirror the
        // stats, the journal saw the contacts the tape replayed.
        assert_eq!(
            observation.metrics.counters["driver/frames_sent"], observed.metrics.frames_sent,
            "{scheme:?}: registry out of sync with driver metrics"
        );
        let contact_ups = observation
            .journal
            .entries()
            .filter(|e| matches!(e.event, ObsEvent::ContactUp { .. }))
            .count();
        assert!(
            contact_ups > 0,
            "{scheme:?}: journal recorded no contacts on a tape with encounters"
        );
        assert!(
            !observation.profile.is_empty(),
            "{scheme:?}: profiling was enabled but captured no spans"
        );
    }
}

#[test]
fn observed_journal_is_deterministic_across_runs() {
    let mut cfg = small_test_config(9, SchemeKind::InterestBased);
    cfg.days = 1;
    cfg.total_posts = 20;
    let trace = record_field_study_trace(&cfg);

    let a = RunObserver::new();
    let b = RunObserver::new();
    run_study(field_study(&cfg, trace.clone()), Some(&a));
    run_study(field_study(&cfg, trace), Some(&b));
    let ja = a.finish().journal;
    let jb = b.finish().journal;
    assert_eq!(ja.to_jsonl(), jb.to_jsonl(), "journal must be reproducible");
    assert_eq!(a.finish().metrics, b.finish().metrics);
}

/// The PATH-REPORT (provenance DAGs + delivery forensics, PR 9) is a
/// pure function of the journal, so the record→replay ground truth
/// extends to it: the report rendered from a live observed run and
/// from an observed replay of its recorded tape must be byte-identical
/// for every scheme.
#[test]
fn path_report_is_byte_identical_across_record_and_replay() {
    let mut cfg = small_test_config(17, SchemeKind::Epidemic);
    cfg.days = 1;
    cfg.total_posts = 25;
    let trace = record_field_study_trace(&cfg);
    let followers = field_study_followers();

    for scheme in SchemeKind::ALL {
        let mut cfg = cfg.clone();
        cfg.scheme = scheme;

        let live_obs = RunObserver::new();
        run_study(field_study(&cfg, field_study_world(&cfg)), Some(&live_obs));
        let live = path_report("live", &live_obs.finish(), &followers, scheme, 5);

        let replay_obs = RunObserver::new();
        run_study(field_study(&cfg, trace.clone()), Some(&replay_obs));
        let replayed = path_report("live", &replay_obs.finish(), &followers, scheme, 5);

        assert_eq!(
            live, replayed,
            "{scheme:?}: PATH-REPORT diverged between live run and replay"
        );
        assert!(
            live.contains("why messages died"),
            "{scheme:?}: empty report"
        );
    }
}

/// The PATH-REPORT is also shard-count invariant: feeding the field
/// study from the sharded contact engine at K=1 and K=4 (different
/// thread counts too) must render byte-identical reports, because the
/// merged encounter stream — and hence the journal — is canonical.
#[test]
fn path_report_is_byte_identical_across_shard_counts() {
    let mut cfg = small_test_config(23, SchemeKind::InterestBased);
    cfg.days = 1;
    cfg.total_posts = 25;
    let trajectories = field_study_trajectories(&cfg);
    let range_m = RadioTech::max_range_m(cfg.infra_available);
    let followers = field_study_followers();

    let mut reports = Vec::new();
    for (shards, threads) in [(1usize, 1usize), (4, 2)] {
        let source = ShardedContactEngine::from_trajectories(
            &trajectories,
            range_m,
            cfg.contact_tick,
            ShardConfig {
                shards,
                epoch_ticks: 8,
                threads,
            },
        );
        let observer = RunObserver::new();
        run_study(field_study(&cfg, source), Some(&observer));
        reports.push(path_report(
            "sharded",
            &observer.finish(),
            &followers,
            cfg.scheme,
            5,
        ));
    }
    assert_eq!(
        reports[0], reports[1],
        "PATH-REPORT diverged between shard counts K=1 and K=4"
    );
}
