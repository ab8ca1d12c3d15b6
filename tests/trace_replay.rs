//! Cross-crate integration: the record/replay subsystem through the
//! public `sos::` facade — recording from both geometric kernels,
//! replaying through the field-study machinery, and driving schemes
//! from a purely synthetic social trace (no geometry anywhere).

use sos::core::routing::SchemeKind;
use sos::experiments::driver::run_study;
use sos::experiments::replay::{delivered_set, record_field_study_trace};
use sos::experiments::scenario::{
    field_study, field_study_engine, run_field_study, small_test_config, FieldStudyConfig,
};
use sos::sim::{EncounterSource, SimDuration, SimTime};
use sos::trace::{
    codec_binary, codec_text, generate_social_trace, ContactTrace, SocialTraceConfig,
    TraceAnalytics,
};

/// Replays `tape` under `cfg` and asserts the replay returns what the
/// live run does: the whole `RunMetrics` (less the Fig. 4b map, which
/// needs positions a tape does not have), the totals and the delivered
/// set.
fn assert_replay_is_exact(cfg: &FieldStudyConfig, tape: ContactTrace) {
    let mut live = run_field_study(cfg);
    let replayed = run_study(field_study(cfg, tape), None);
    assert_eq!(delivered_set(&live), delivered_set(&replayed));
    assert_eq!(live.totals, replayed.totals);
    live.metrics.map.clear();
    assert_eq!(live.metrics, replayed.metrics);
}

/// Recording from the naive scan and from the grid kernel produces the
/// same tape, and replaying it reproduces the live run exactly.
#[test]
fn record_replay_is_exact_across_kernels() {
    let mut cfg = small_test_config(31, SchemeKind::Epidemic);
    cfg.days = 1;
    cfg.total_posts = 20;

    let tape = record_field_study_trace(&cfg);
    let end = SimTime::from_hours(cfg.days * 24);
    let engine_tape = ContactTrace::record(&field_study_engine(&cfg), SimTime::ZERO, end).unwrap();
    assert_eq!(tape, engine_tape, "kernels must record identical tapes");

    assert_replay_is_exact(&cfg, tape);
}

/// A synthetic community trace drives the full scheme machinery with
/// no geometry at all — the new workload axis.
#[test]
fn synthetic_social_trace_drives_schemes() {
    let synthetic = generate_social_trace(&SocialTraceConfig {
        nodes: 10, // the field-study population
        days: 2,
        intra_contacts_per_day: 6.0,
        ..SocialTraceConfig::default()
    })
    .unwrap();
    let analytics = TraceAnalytics::compute(&synthetic);
    assert!(analytics.graph.connected, "trace must connect the cohort");

    let mut cfg = small_test_config(3, SchemeKind::Epidemic);
    cfg.days = 2;
    cfg.total_posts = 20;
    let outcome = run_study(field_study(&cfg, synthetic), None);
    assert_eq!(outcome.metrics.posts, 20);
    assert!(
        outcome.totals.bundles_received > 0,
        "synthetic contacts must carry transfers"
    );
    // Trace sources know no geometry: the Fig. 4b map stays empty.
    assert!(outcome.metrics.map.is_empty());
}

/// Replaying a sub-window keeps contacts that span its start.
#[test]
fn windowed_replay_preserves_open_contacts() {
    let mut cfg = small_test_config(7, SchemeKind::Epidemic);
    cfg.days = 1;
    let tape = record_field_study_trace(&cfg);
    let mid = SimTime::from_hours(12);
    let end = SimTime::from_hours(24);
    let window = tape.encounter_events(mid, end);
    // Window invariant: phases alternate per pair starting Up — i.e.
    // the window itself is a valid trace.
    assert!(ContactTrace::new(tape.node_count(), tape.range_m(), window).is_ok());
}

/// Codec round-trips through the facade, plus ONE-style import.
#[test]
fn codecs_round_trip_via_facade() {
    let trace = generate_social_trace(&SocialTraceConfig {
        days: 1,
        ..SocialTraceConfig::default()
    })
    .unwrap();
    assert_eq!(
        codec_text::from_text(&codec_text::to_text(&trace)).unwrap(),
        trace
    );
    assert_eq!(
        codec_binary::from_binary(&codec_binary::to_binary(&trace)).unwrap(),
        trace
    );
    // ONE-simulator connectivity lines import (a, b order-insensitive).
    let one = "10 CONN 5 2 up\n400.5 CONN 5 2 down\n";
    let imported = codec_text::from_text(one).unwrap();
    assert_eq!(imported.node_count(), 6);
    let first = imported.events().next().expect("one event");
    assert_eq!(first.a, 2);
    assert_eq!(first.b, 5);
}

/// Malformed external inputs surface as errors, never panics.
#[test]
fn malformed_ingestion_cannot_panic() {
    use sos::sim::mobility::trace::Trajectory;
    use sos::sim::{Point, SimError};

    // Unordered trajectory waypoints -> SimError -> SosError.
    let err = Trajectory::new(vec![
        (SimTime::from_secs(9), Point::new(0.0, 0.0)),
        (SimTime::from_secs(1), Point::new(1.0, 1.0)),
    ])
    .unwrap_err();
    assert_eq!(err, SimError::UnorderedWaypoints { index: 1 });
    let middleware_err: sos::core::SosError = err.into();
    assert!(middleware_err.to_string().contains("trajectory"));

    // Corrupt trace bytes -> TraceError.
    assert!(codec_binary::from_binary(b"garbage!garbage!").is_err());
    assert!(codec_text::from_text("1 2 3\n").is_err());

    // Valid lines, impossible timeline -> TraceError.
    assert!(codec_text::from_text("# nodes 2\n5 0 1 down 1.0\n").is_err());
}

/// The sim tick window of a recorded tape is irrelevant to replay: the
/// trace replays on its own event times, at any granularity.
#[test]
fn replay_is_tick_free() {
    let mut cfg = small_test_config(11, SchemeKind::Direct);
    cfg.days = 1;
    cfg.contact_tick = SimDuration::from_secs(120); // coarse recording
    assert_replay_is_exact(&cfg, record_field_study_trace(&cfg));
}
