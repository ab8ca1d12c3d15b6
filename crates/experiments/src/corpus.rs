//! Field studies on imported real-world corpora: the *in vivo*
//! evaluation loop closed over published datasets.
//!
//! The Gainesville scenario ([`scenario`](crate::scenario)) is fixed
//! at the paper's ten students and reconstructed Fig. 4a digraph. An
//! imported corpus (CRAWDAD `CONN` log, Reality-Mining scans, SASSY
//! ranging — see `sos_trace::corpora`) brings its own population, so
//! this module builds the study around the trace itself, from the one
//! provisioning every transport shares (`sos_node::provision`):
//!
//! * one AlleyOop app per trace node, signed up with a fresh cloud CA
//!   (handles derived from the corpus's original device ids);
//! * the follow digraph derived from the trace's aggregate contact
//!   graph — devices that met during the deployment follow each other,
//!   the same "social structure from encounters" reading the paper
//!   applies to its own deployment;
//! * a seeded uniform post workload over the trace's span;
//! * the trace itself as the encounter source, under the identical
//!   driver the live scenario uses ([`run_study`]).
//!
//! Everything is a pure function of `(trace, config)`, so corpus runs
//! are as reproducible as the recorded-tape replays — and a corpus
//! study, a mesh run and a socket run of one `(trace, plan)` host the
//! same population posting the same workload.

use crate::driver::{run_study, Study};
use crate::observe::RunObserver;
use sos_net::Medium;
use sos_node::provision::{followers_from_trace, post_schedule, provision_apps};
use sos_trace::ContactTrace;

/// Corpus-study parameters (the trace supplies population and span):
/// the plan every lockstep transport takes.
pub use sos_node::provision::RunPlan as CorpusStudyConfig;

/// What a corpus run produced: the one result type of every
/// driver-based study (summarise it with
/// [`summary`](CorpusRun::summary), render it with
/// [`report::run_report`](crate::report::run_report)).
pub use crate::driver::StudyRun as CorpusRun;

/// One routing scheme's study over an imported corpus: every scheme
/// built from one `(trace, config)` sees precisely the same
/// real-deployment encounter opportunities.
///
/// # Panics
///
/// Panics if the trace has fewer than 2 nodes — an imported corpus
/// without encounters cannot host a field study.
pub fn corpus_study(trace: &ContactTrace, config: &CorpusStudyConfig) -> Study<ContactTrace> {
    Study {
        scheme: config.scheme,
        seed: config.seed,
        apps: provision_apps(trace, config),
        source: trace.clone(),
        followers: followers_from_trace(trace),
        posts: post_schedule(trace, config),
        ad_interval: config.ad_interval,
        air: Medium::Radio { infra: false },
        end: trace.end_time(),
    }
}

/// Runs [`corpus_study`], optionally attaching a [`RunObserver`]
/// (whose registry/journal then capture the run without changing it).
pub fn run_corpus_study_full(
    trace: &ContactTrace,
    config: &CorpusStudyConfig,
    obs: Option<&RunObserver>,
) -> CorpusRun {
    run_study(corpus_study(trace, config), obs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sos_core::routing::SchemeKind;
    use sos_sim::world::{ContactEvent, ContactPhase};
    use sos_sim::SimTime;

    /// A small dense synthetic "corpus": 4 nodes meeting pairwise
    /// repeatedly over 6 hours, with labels like an imported trace.
    pub(crate) fn mini_corpus() -> ContactTrace {
        let mut events = Vec::new();
        let pairs = [(0usize, 1usize), (1, 2), (2, 3), (0, 3), (0, 2)];
        for round in 0u64..6 {
            for (k, &(a, b)) in pairs.iter().enumerate() {
                let start = round * 3600 + k as u64 * 600;
                events.push(ContactEvent {
                    time: SimTime::from_secs(start),
                    a,
                    b,
                    phase: ContactPhase::Up,
                    distance_m: 5.0,
                });
                events.push(ContactEvent {
                    time: SimTime::from_secs(start + 420),
                    a,
                    b,
                    phase: ContactPhase::Down,
                    distance_m: 5.0,
                });
            }
        }
        events.sort_by_key(|ev| (ev.time, ev.a, ev.b, ev.phase == ContactPhase::Up));
        ContactTrace::new_labeled(
            4,
            None,
            Some(vec!["21".into(), "33".into(), "a1f3".into(), "T05".into()]),
            events,
        )
        .unwrap()
    }

    #[test]
    fn followers_mirror_the_aggregate_contact_graph() {
        let followers = followers_from_trace(&mini_corpus());
        assert_eq!(followers[0], vec![1, 2, 3]);
        assert_eq!(followers[1], vec![0, 2]);
        assert_eq!(followers[3], vec![0, 2]);
    }

    #[test]
    fn corpus_study_delivers_and_is_deterministic() {
        let trace = mini_corpus();
        let cfg = CorpusStudyConfig {
            total_posts: 20,
            scheme: SchemeKind::Epidemic,
            ..CorpusStudyConfig::default()
        };
        let a = run_corpus_study_full(&trace, &cfg, None);
        assert_eq!(a.metrics.posts, 20);
        assert_eq!(a.apps.len(), 4);
        assert!(a.transfers() > 0, "dense corpus must deliver: {a:?}");
        assert!(!a.metrics.delays.is_empty());
        assert_eq!(a.metrics.security_alerts, 0);
        let b = run_corpus_study_full(&trace, &cfg, None);
        assert_eq!(a.transfers(), b.transfers());
        assert_eq!(a.metrics.frames_sent, b.metrics.frames_sent);
        assert_eq!(a.metrics.delays.len(), b.metrics.delays.len());
    }

    #[test]
    fn all_five_schemes_complete_on_a_corpus() {
        let trace = mini_corpus();
        let outcomes = sos_engine::run_replicas(SchemeKind::ALL.to_vec(), 0, |_, scheme| {
            let config = CorpusStudyConfig {
                scheme,
                ..CorpusStudyConfig::default()
            };
            run_study(corpus_study(&trace, &config), None)
        });
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            assert_eq!(o.metrics.posts, 40, "{:?}", o.scheme);
            assert_eq!(o.metrics.security_alerts, 0, "{:?}", o.scheme);
        }
        // Epidemic floods at least as much as Direct delivers.
        let epi = &outcomes[0];
        let direct = outcomes
            .iter()
            .find(|o| o.scheme == SchemeKind::Direct)
            .unwrap();
        assert!(epi.transfers() >= direct.transfers());
    }
}
