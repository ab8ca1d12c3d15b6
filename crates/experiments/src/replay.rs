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
//! it, a replay is the field study with the tape as its encounter
//! source (`run_study(field_study(config, tape), obs)`), and
//! [`delivered_set`] is the ground truth any two runs are compared on.

use crate::driver::StudyRun;
use crate::scenario::{field_study_world, FieldStudyConfig};
use sos_node::host::delivered;
use sos_node::proto::author_hex;
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

/// The delivered set of a run: every bundle present in a node's local
/// store at the end, as `(node, author hex, number)` — the shape of the
/// lockstep plane's `Outcome::delivered`, and the ground truth that
/// replay determinism is asserted on.
pub fn delivered_set(run: &StudyRun) -> BTreeSet<(u32, String, u64)> {
    let stores = (0u32..).zip(&run.apps).flat_map(|(node, app)| {
        delivered(app).map(move |(author, number)| (node, author_hex(author.as_bytes()), number))
    });
    stores.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_study;
    use crate::scenario::{field_study, run_field_study, small_test_config};
    use sos_core::routing::SchemeKind;
    use sos_trace::{codec_binary, codec_text, TraceAnalytics};

    /// Replays `tape` under `cfg` and asserts the replay returns what the
    /// live run does: the whole `RunMetrics` (less the Fig. 4b map, which
    /// needs positions a tape does not have), the totals and the
    /// delivered set, which is returned.
    fn assert_replay_is_exact(
        cfg: &FieldStudyConfig,
        tape: ContactTrace,
    ) -> BTreeSet<(u32, String, u64)> {
        let mut live = run_field_study(cfg);
        let replayed = run_study(field_study(cfg, tape), None);
        let delivered = delivered_set(&live);
        let scheme = cfg.scheme;
        assert_eq!(delivered, delivered_set(&replayed), "{scheme:?}");
        assert_eq!(live.totals, replayed.totals, "{scheme:?}");
        live.metrics.map.clear();
        assert_eq!(live.metrics, replayed.metrics, "{scheme:?}");
        delivered
    }

    /// The acceptance gate: for **every** routing scheme, recording a
    /// field study and replaying the tape yields a byte-identical run.
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
            let delivered = assert_replay_is_exact(&cfg, trace.clone());
            assert!(!delivered.is_empty(), "{scheme:?}: the workload delivers");
        }
    }

    /// The tape survives both codecs and still replays identically.
    #[test]
    fn replay_through_codecs_is_still_identical() {
        let mut cfg = small_test_config(23, SchemeKind::InterestBased);
        cfg.days = 1;
        cfg.total_posts = 20;
        let trace = record_field_study_trace(&cfg);
        let via_text = codec_text::from_text(&codec_text::to_text(&trace)).unwrap();
        let via_binary = codec_binary::from_binary(&codec_binary::to_binary(&trace)).unwrap();
        assert_eq!(via_text, trace);
        assert_eq!(via_binary, trace);
        assert_replay_is_exact(&cfg, via_binary);
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
