//! Acceptance test for delivery forensics: on every committed corpus
//! fixture, for **all five** routing schemes, the run's record breaks
//! no invariant `Provenance::build` checks, every authored bundle gets
//! one verdict, every undelivered one exactly one root cause, and the
//! classification is deterministic.

use sos::core::routing::SchemeKind;
use sos::experiments::corpus::{run_corpus_study_full, CorpusStudyConfig};
use sos::experiments::observe::RunObserver;
use sos::experiments::report::{follower_destinations, path_report, scheme_traits};
use sos::node::provision::followers_from_trace;
use sos::obs::Verdict;
use sos::trace::corpora::{import_bytes, CorpusFormat};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/trace/tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn forensics_is_exhaustive_for_every_scheme_on_every_fixture() {
    for (name, format) in [
        ("haggle_mini.conn", CorpusFormat::Crawdad),
        ("reality_mini.txt", CorpusFormat::RealityMining),
        ("sassy_mini.csv", CorpusFormat::Sassy),
    ] {
        let corpus = import_bytes(format, &fixture(name)).expect("fixture imports");
        let trace = &corpus.trace;
        let followers = followers_from_trace(trace);
        let destinations = follower_destinations(&followers);

        for scheme in SchemeKind::ALL {
            let cfg = CorpusStudyConfig {
                total_posts: 15,
                scheme,
                ..CorpusStudyConfig::default()
            };
            let observer = RunObserver::new();
            let run = run_corpus_study_full(trace, &cfg, Some(&observer));
            let observation = observer.finish();
            let provenance = observation.provenance();
            assert_eq!(provenance.violations, [], "{name}/{scheme:?}");
            let forensics = provenance.classify(&destinations, scheme_traits(scheme));

            // Exhaustive: one verdict per authored bundle.
            assert_eq!(
                forensics.authored() as u64,
                run.metrics.posts,
                "{name}/{scheme:?}: authored != posts"
            );
            // Every undelivered verdict carries exactly one cause, and
            // the per-cause counts sum back to the undelivered total.
            let cause_sum: u64 = forensics.cause_counts().iter().map(|(_, n)| n).sum();
            assert_eq!(
                cause_sum as usize,
                forensics.undelivered(),
                "{name}/{scheme:?}: cause counts do not partition the undelivered set"
            );
            assert_eq!(
                forensics.truncated, 0,
                "{name}/{scheme:?}: unexpected drops"
            );
            for (key, verdict) in &forensics.verdicts {
                if let Verdict::Undelivered(cause) = verdict {
                    assert!(
                        !cause.label().is_empty(),
                        "{name}/{scheme:?}: {key} has an unlabeled cause"
                    );
                }
            }

            // Deterministic: a second observed run classifies and
            // renders byte-identically.
            let observer2 = RunObserver::new();
            run_corpus_study_full(trace, &cfg, Some(&observer2));
            let observation2 = observer2.finish();
            let forensics2 = observation2
                .provenance()
                .classify(&destinations, scheme_traits(scheme));
            assert_eq!(
                forensics.verdicts, forensics2.verdicts,
                "{name}/{scheme:?}: verdicts not reproducible"
            );
            assert_eq!(
                path_report(name, &observation, &followers, scheme, 3),
                path_report(name, &observation2, &followers, scheme, 3),
                "{name}/{scheme:?}: PATH-REPORT not reproducible"
            );
        }
    }
}
