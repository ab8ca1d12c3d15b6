//! Record/replay of the field study: the *in vivo* evaluation loop.
//!
//! The paper's methodology is to judge routing schemes on a real
//! deployment's encounter log. This module closes that loop on the
//! simulated substrate: run the Gainesville scenario once, record its
//! encounter timeline with `sos-trace`, then re-drive **any** routing
//! scheme from the recorded tape — through the byte-identical driver
//! path, so a replayed run reproduces the live run exactly (delivered
//! sets, delays, stats), and different schemes compared on one tape
//! see precisely the same opportunities, the way Fig. 4's comparisons
//! assume.
//!
//! The module adds only the tape: [`record_field_study_trace`] writes
//! it, [`replay_field_study`] hands it to [`run_field_study_with`] as
//! the encounter source, and [`delivered_set`] is the ground truth any
//! two runs are compared on.

use crate::driver::StudyRun;
use crate::observe::RunObserver;
use crate::scenario::{field_study_world, run_field_study, run_field_study_with, FieldStudyConfig};
use sos_core::message::MessageId;
use sos_sim::SimTime;
use sos_trace::ContactTrace;
use std::collections::BTreeSet;

/// Records the encounter timeline that `config`'s field study drives,
/// without running the middleware.
pub fn record_field_study_trace(config: &FieldStudyConfig) -> ContactTrace {
    let world = field_study_world(config);
    let end = SimTime::from_hours(config.days * 24);
    ContactTrace::record(&world, SimTime::ZERO, end)
        // sos-lint: allow(no-panic) reason="recording a synthetic geometric world, not external input; an invalid timeline is a generator bug"
        .expect("geometric sources emit valid timelines")
}

/// Runs the field study live and returns the outcome together with
/// the recorded encounter tape.
pub fn record_field_study(config: &FieldStudyConfig) -> (StudyRun, ContactTrace) {
    (run_field_study(config), record_field_study_trace(config))
}

/// Replays a recorded (or imported, or synthetic) tape through the
/// identical scenario machinery: same apps, same subscriptions, same
/// post workload, same driver — only the encounter source differs.
/// Observing the replay leaves it byte-identical (asserted by
/// `tests/obs_determinism` at the workspace root).
pub fn replay_field_study(
    config: &FieldStudyConfig,
    trace: &ContactTrace,
    obs: Option<&RunObserver>,
) -> StudyRun {
    run_field_study_with(config, trace.clone(), obs)
}

/// The delivered set of a run: every `(node, message)` pair present in
/// a node's local store at the end — the ground truth that replay
/// determinism is asserted on.
pub fn delivered_set(run: &StudyRun) -> BTreeSet<(usize, MessageId)> {
    let mut set = BTreeSet::new();
    for (node, app) in run.apps.iter().enumerate() {
        for bundle in app.middleware().store().iter() {
            set.insert((node, bundle.message.id));
        }
    }
    set
}

/// Live-vs-replay comparison of one scheme on one tape.
#[derive(Debug)]
pub struct ReplayCheck {
    /// The scheme that was driven.
    pub scheme: sos_core::routing::SchemeKind,
    /// Delivered `(node, message)` pairs in the live run.
    pub live_delivered: usize,
    /// Delivered `(node, message)` pairs in the replay.
    pub replay_delivered: usize,
    /// True when delivered sets, aggregate stats, frame counters, and
    /// per-delivery delay records are all byte-identical.
    pub identical: bool,
}

/// Runs `config` live, replays the recorded tape, and checks the runs
/// are indistinguishable.
pub fn check_replay_determinism(config: &FieldStudyConfig) -> ReplayCheck {
    let (live, trace) = record_field_study(config);
    let replayed = replay_field_study(config, &trace, None);
    let live_set = delivered_set(&live);
    let replay_set = delivered_set(&replayed);
    let identical = live_set == replay_set
        && live.totals == replayed.totals
        && live.metrics.posts == replayed.metrics.posts
        && live.metrics.frames_sent == replayed.metrics.frames_sent
        && live.metrics.frames_lost == replayed.metrics.frames_lost
        && live.metrics.security_alerts == replayed.metrics.security_alerts
        && live.metrics.delays.records() == replayed.metrics.delays.records();
    ReplayCheck {
        scheme: config.scheme,
        live_delivered: live_set.len(),
        replay_delivered: replay_set.len(),
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::small_test_config;
    use sos_core::routing::SchemeKind;
    use sos_trace::{codec_binary, codec_text, TraceAnalytics};

    /// The acceptance gate: for **every** routing scheme, recording a
    /// field study and replaying the tape yields byte-identical
    /// delivered sets and stats.
    #[test]
    fn record_replay_identical_for_every_scheme() {
        let mut cfg = small_test_config(17, SchemeKind::Epidemic);
        cfg.days = 1;
        cfg.total_posts = 25;
        // One tape drives every scheme: the timeline depends only on
        // mobility, which is scheme-independent.
        let trace = record_field_study_trace(&cfg);
        for scheme in SchemeKind::ALL {
            let mut cfg = cfg.clone();
            cfg.scheme = scheme;
            let live = run_field_study(&cfg);
            let replayed = replay_field_study(&cfg, &trace, None);
            assert_eq!(
                delivered_set(&live),
                delivered_set(&replayed),
                "{scheme:?}: delivered sets diverged"
            );
            assert_eq!(live.totals, replayed.totals, "{scheme:?}: stats diverged");
            assert_eq!(
                live.metrics.delays.records(),
                replayed.metrics.delays.records(),
                "{scheme:?}: delay records diverged"
            );
            assert_eq!(live.metrics.frames_sent, replayed.metrics.frames_sent);
            assert_eq!(live.metrics.frames_lost, replayed.metrics.frames_lost);
        }
    }

    /// The tape survives both codecs and still replays identically.
    #[test]
    fn replay_through_codecs_is_still_identical() {
        let mut cfg = small_test_config(23, SchemeKind::InterestBased);
        cfg.days = 1;
        cfg.total_posts = 20;
        let (live, trace) = record_field_study(&cfg);
        let via_text = codec_text::from_text(&codec_text::to_text(&trace)).unwrap();
        let via_binary = codec_binary::from_binary(&codec_binary::to_binary(&trace)).unwrap();
        assert_eq!(via_text, trace);
        assert_eq!(via_binary, trace);
        let replayed = replay_field_study(&cfg, &via_binary, None);
        assert_eq!(delivered_set(&live), delivered_set(&replayed));
        assert_eq!(live.totals, replayed.totals);
    }

    #[test]
    fn check_replay_determinism_reports_identical() {
        let mut cfg = small_test_config(5, SchemeKind::Epidemic);
        cfg.days = 1;
        cfg.total_posts = 15;
        let check = check_replay_determinism(&cfg);
        assert!(check.identical, "{check:?}");
        assert!(check.live_delivered > 0, "workload should deliver");
        assert_eq!(check.live_delivered, check.replay_delivered);
    }

    /// The recorded tape characterizes like a social trace: connected
    /// aggregate graph, plausible contact statistics.
    #[test]
    fn recorded_tape_feeds_analytics() {
        let mut cfg = small_test_config(2, SchemeKind::Epidemic);
        cfg.days = 1;
        let trace = record_field_study_trace(&cfg);
        let analytics = TraceAnalytics::compute(&trace);
        assert_eq!(analytics.nodes, 10);
        assert!(analytics.contacts > 0);
        assert!(analytics.report().contains("contact graph"));
    }
}
