//! Run-scoped observability wiring: one [`RunObserver`] per experiment
//! run bundles the metrics [`Registry`], the shared event journal, and
//! (optionally) the span profiler, and [`RunObserver::finish`] freezes
//! all three into a [`RunObservation`] the report layer renders.
//!
//! Observation is strictly passive: attaching an observer to a driver
//! or middleware never draws randomness, reorders events, or changes
//! any decision — the record→replay byte-identity tests run with and
//! without instrumentation and must agree (see `tests/obs_determinism`
//! at the workspace root).

use sos_obs::{
    profile, GlobalTimeline, Journal, JournalHandle, MetricsSnapshot, Profile, Provenance, Registry,
};

/// The observability context of one run: pass `Some(&observer)` to
/// [`run_study`](crate::driver::run_study) (which attaches `registry`
/// and `journal` to the driver) or to any other study entry point —
/// each takes an `Option<&RunObserver>` — then [`finish`] after the
/// run.
///
/// [`finish`]: RunObserver::finish
#[derive(Clone, Debug)]
pub struct RunObserver {
    /// The metrics registry every node's stat cells are adopted into.
    pub registry: Registry,
    /// The shared journal every node's scope feeds.
    pub journal: JournalHandle,
    profiling: bool,
}

impl Default for RunObserver {
    fn default() -> Self {
        RunObserver::new()
    }
}

impl RunObserver {
    /// A fresh observer with the default journal capacity and no
    /// profiling.
    pub fn new() -> RunObserver {
        RunObserver {
            registry: Registry::new(),
            journal: JournalHandle::new(),
            profiling: false,
        }
    }

    /// A fresh observer that also turns the (process-global) span
    /// profiler on; [`finish`](RunObserver::finish) turns it back off
    /// and drains this thread's profile.
    pub fn with_profiling() -> RunObserver {
        profile::set_enabled(true);
        RunObserver {
            profiling: true,
            ..RunObserver::new()
        }
    }

    /// A fresh observer whose journal retains at most `capacity`
    /// entries (oldest dropped first).
    pub fn with_journal_capacity(capacity: usize) -> RunObserver {
        RunObserver {
            journal: JournalHandle::with_capacity(capacity),
            ..RunObserver::new()
        }
    }

    /// Freezes the run's observability state: registry snapshot,
    /// journal copy, and — when profiling was requested — the current
    /// thread's aggregated span profile.
    pub fn finish(&self) -> RunObservation {
        let profile = if self.profiling {
            profile::set_enabled(false);
            profile::take()
        } else {
            Profile::default()
        };
        RunObservation {
            metrics: self.registry.snapshot(),
            journal: self.journal.snapshot(),
            profile,
        }
    }
}

/// Everything a finished run's observability captured.
#[derive(Clone, Debug)]
pub struct RunObservation {
    /// Every registered counter and histogram at end of run.
    pub metrics: MetricsSnapshot,
    /// The retained event journal.
    pub journal: Journal,
    /// The aggregated span profile (empty unless profiling was on).
    pub profile: Profile,
}

impl RunObservation {
    /// The journal merged into its canonical global timeline (sorted by
    /// `(time, node, seq)` — byte-identical across replay and shard
    /// counts).
    pub fn timeline(&self) -> GlobalTimeline {
        GlobalTimeline::merge([&self.journal])
    }

    /// The full provenance reconstruction of the run: per-bundle
    /// propagation DAGs plus contact intervals, ready for
    /// [`Provenance::classify`] and the PATH-REPORT renderer
    /// ([`crate::report::path_report`]).
    pub fn provenance(&self) -> Provenance {
        Provenance::build(&self.timeline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{run_corpus_study_full, CorpusStudyConfig};
    use crate::density::{density_study, DensityConfig};
    use crate::driver::{run_study, StudyRun};
    use crate::eviction::{run_eviction_study, EvictionStudyConfig};
    use crate::replay::record_field_study_trace;
    use crate::scenario::{field_study, field_study_world, small_test_config};
    use sos_core::routing::SchemeKind;
    use sos_obs::journal::ObsEvent;

    /// Observation is passive for every driver-based scenario: each is
    /// run blind and observed through the one run function and must
    /// agree on metrics and totals, while the observer's journal and
    /// registry agree with what the stats count.
    #[test]
    fn observed_run_matches_blind_run_and_captures_events() {
        let cfg = small_test_config(11, SchemeKind::InterestBased);
        let tape = record_field_study_trace(&cfg);
        let corpus = crate::corpus::tests::mini_corpus();
        let corpus_cfg = CorpusStudyConfig::default();
        let density_cfg = DensityConfig {
            hours: 4,
            posts: 30,
            ..DensityConfig::conventional(12, 0.25, 3)
        };
        type Scenario<'a> = Box<dyn Fn(Option<&RunObserver>) -> StudyRun + 'a>;
        let scenarios: [(&str, Scenario<'_>); 4] = [
            (
                "field study",
                Box::new(|obs| run_study(field_study(&cfg, field_study_world(&cfg)), obs)),
            ),
            (
                "replay",
                Box::new(|obs| run_study(field_study(&cfg, tape.clone()), obs)),
            ),
            (
                "corpus",
                Box::new(|obs| run_corpus_study_full(&corpus, &corpus_cfg, obs)),
            ),
            (
                "density",
                Box::new(|obs| run_study(density_study(&density_cfg), obs)),
            ),
        ];
        for (name, run) in &scenarios {
            let blind = run(None);
            let observer = RunObserver::new();
            let observed = run(Some(&observer));
            let observation = observer.finish();

            // Observation is passive: the run itself is byte-identical.
            assert_eq!(blind.metrics, observed.metrics, "{name}");
            assert_eq!(blind.totals, observed.totals, "{name}");

            // The journal saw the sessions and transfers the stats count.
            let journal = &observation.journal;
            assert!(!journal.is_empty(), "{name}");
            let opens = journal
                .entries()
                .filter(|e| matches!(e.event, ObsEvent::SessionOpen { .. }))
                .count() as u64;
            assert_eq!(
                opens,
                observed.totals.sessions_initiated + observed.totals.sessions_accepted,
                "{name}"
            );
            let accepts = journal
                .entries()
                .filter(|e| matches!(e.event, ObsEvent::BundleAccept { .. }))
                .count() as u64;
            assert_eq!(
                accepts,
                observed.totals.bundles_received
                    - observed.totals.bundles_duplicate
                    - observed.totals.security_rejections,
                "{name}"
            );

            // The registry's adopted cells agree with the aggregate stats.
            let posts: u64 = observation
                .metrics
                .counters
                .iter()
                .filter(|(k, _)| k.ends_with("/posts") && k.starts_with("node"))
                .map(|(_, v)| v)
                .sum();
            assert_eq!(posts, observed.totals.posts, "{name}");
            assert_eq!(
                observation.metrics.counters["driver/frames_sent"], observed.metrics.frames_sent,
                "{name}"
            );
            // The journal itself is deterministic: a second observed run
            // produces byte-identical JSONL. (Timestamps need not be
            // globally monotone — a peer-lost close is stamped with the
            // middleware's last-seen time, which can precede the driver's
            // contact-down tick — but the order and content are fixed.)
            let observer2 = RunObserver::new();
            run(Some(&observer2));
            assert_eq!(
                observation.journal.to_jsonl(),
                observer2.finish().journal.to_jsonl(),
                "{name}"
            );
        }
    }

    /// The eviction study drives three bare middlewares, not the
    /// driver, but takes its observer the same way — and as passively.
    /// Its journal sees the capped relay evict and breaks no invariant,
    /// the custody it records is what each node holds at the end (the
    /// author its posts, the relay its cap, the subscriber every post),
    /// its registry mirrors the author's post counter, and a second
    /// observed run dumps the same JSONL.
    #[test]
    fn observed_eviction_study_matches_the_blind_one() {
        let config = EvictionStudyConfig::default();
        let observer = RunObserver::new();
        let outcome = run_eviction_study(&config, Some(&observer));
        assert_eq!(run_eviction_study(&config, None), outcome);
        let observation = observer.finish();
        let journal = &observation.journal;
        assert!(!journal.is_empty());
        assert!(journal.evicted_total() > 0, "the capped relay evicts");
        let provenance = observation.provenance();
        assert_eq!(provenance.violations, []);
        let mut held = [0u64; 3];
        for path in provenance.paths.values() {
            for &node in &path.custody {
                held[node as usize] += 1;
            }
        }
        let cap = config.relay_capacity as u64;
        assert_eq!(held, [outcome.posts, cap, outcome.delivered_final]);
        assert_eq!(
            observation.metrics.counters["node0/sos/posts"],
            outcome.posts
        );
        let again = RunObserver::new();
        run_eviction_study(&config, Some(&again));
        assert_eq!(again.finish().journal.to_jsonl(), journal.to_jsonl());
    }
}
