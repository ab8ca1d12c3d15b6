//! Acceptance test for the corpora importer subsystem: every
//! committed fixture imports with full accounting, and **all five**
//! routing schemes complete a field study on the imported
//! real-deployment timeline via the replay driver.

use sos::core::routing::SchemeKind;
use sos::engine::run_replicas;
use sos::experiments::corpus::{corpus_study, CorpusStudyConfig};
use sos::experiments::driver::run_study;
use sos::trace::corpora::{import_bytes, CorpusFormat};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/trace/tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn all_five_schemes_complete_on_every_imported_fixture() {
    for (name, format) in [
        ("haggle_mini.conn", CorpusFormat::Crawdad),
        ("haggle_mini.conn.gz", CorpusFormat::Crawdad),
        ("reality_mini.txt", CorpusFormat::RealityMining),
        ("sassy_mini.csv", CorpusFormat::Sassy),
    ] {
        let corpus = import_bytes(format, &fixture(name)).expect("fixture imports");
        assert!(
            corpus.report.accounts_for_everything(),
            "{name}: {:?}",
            corpus.report
        );
        let outcomes = run_replicas(SchemeKind::ALL.to_vec(), 0, |_, scheme| {
            let config = CorpusStudyConfig {
                scheme,
                total_posts: 15,
                ..CorpusStudyConfig::default()
            };
            run_study(corpus_study(&corpus.trace, &config), None)
        });
        assert_eq!(outcomes.len(), 5, "{name}");
        for o in &outcomes {
            assert_eq!(
                o.metrics.posts, 15,
                "{name}/{:?} did not complete",
                o.scheme
            );
            assert_eq!(o.metrics.security_alerts, 0, "{name}/{:?}", o.scheme);
        }
        assert!(
            outcomes.iter().any(|o| !o.metrics.delays.is_empty()),
            "{name}: no scheme delivered anything"
        );
    }
}
