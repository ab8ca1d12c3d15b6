//! Bundle forensics: why messages die, scheme by scheme.
//!
//! Imports the Haggle/CRAWDAD mini fixture, runs **all five** routing
//! schemes over the real-deployment contact timeline with the
//! observability layer attached, reconstructs every bundle's
//! propagation DAG from the merged journal, and classifies every
//! undelivered bundle to exactly one root cause — then prints the
//! side-by-side "why messages died" table and a full PATH-REPORT.
//!
//! Demonstrates the PR 9 provenance invariants end-to-end:
//!
//! * forensics is exhaustive — delivered + root-caused undelivered
//!   equals authored, for every scheme;
//! * the report is deterministic — a second observed run renders
//!   byte-identical bytes;
//! * observation stays passive — outcomes match the unobserved run.
//!
//! ```sh
//! cargo run --release --example bundle_forensics
//! ```

use sos::core::routing::SchemeKind;
use sos::experiments::corpus::{run_corpus_study_full, CorpusStudyConfig};
use sos::experiments::observe::RunObserver;
use sos::experiments::report::{follower_destinations, path_report, scheme_traits};
use sos::node::provision::followers_from_trace;
use sos::obs::{DropCause, Forensics};
use sos::trace::corpora::{import_bytes, CorpusFormat};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/trace/tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn main() {
    let corpus =
        import_bytes(CorpusFormat::Crawdad, &fixture("haggle_mini.conn")).expect("fixture imports");
    let trace = &corpus.trace;
    let followers = followers_from_trace(trace);
    let destinations = follower_destinations(&followers);
    println!(
        "bundle forensics: haggle_mini.conn — {} nodes, {} contact intervals\n",
        trace.node_count(),
        trace.intervals(trace.end_time()).len()
    );

    let config = CorpusStudyConfig {
        total_posts: 20,
        ..CorpusStudyConfig::default()
    };

    // One observed run per scheme; keep forensics + a rendered report.
    let mut columns: Vec<(SchemeKind, Forensics)> = Vec::new();
    let mut reports: Vec<(SchemeKind, String)> = Vec::new();
    for scheme in SchemeKind::ALL {
        let cfg = CorpusStudyConfig {
            scheme,
            ..config.clone()
        };
        let observer = RunObserver::new();
        let run = run_corpus_study_full(trace, &cfg, Some(&observer));
        let observation = observer.finish();

        // Passive: the observed outcome matches a blind run.
        let blind = run_corpus_study_full(trace, &cfg, None);
        assert_eq!(
            blind.metrics.delays.len(),
            run.metrics.delays.len(),
            "{scheme:?}: observation changed the run"
        );

        let forensics = observation
            .provenance()
            .classify(&destinations, scheme_traits(scheme));
        // Exhaustive: every authored bundle is delivered or root-caused.
        assert!(
            forensics.accounts_for_everything(),
            "{scheme:?}: forensics lost bundles"
        );
        assert_eq!(
            forensics.authored() as u64,
            run.metrics.posts,
            "{scheme:?}: authored != posts"
        );

        reports.push((
            scheme,
            path_report("haggle_mini", &observation, &followers, scheme, 3),
        ));
        columns.push((scheme, forensics));
    }

    // Side-by-side: why messages died, per scheme.
    print!("{:<22}", "verdict");
    for (scheme, _) in &columns {
        print!("{:>19}", format!("{scheme:?}"));
    }
    println!();
    print!("{:<22}", "delivered");
    for (_, f) in &columns {
        print!("{:>19}", f.delivered());
    }
    println!();
    for cause in DropCause::ALL {
        let counts: Vec<u64> = columns
            .iter()
            .map(|(_, f)| {
                f.cause_counts()
                    .iter()
                    .find(|(c, _)| *c == cause)
                    .map_or(0, |(_, n)| *n)
            })
            .collect();
        if counts.iter().all(|&n| n == 0) {
            continue; // keep the table to causes that actually occurred
        }
        print!("{:<22}", cause.label());
        for n in counts {
            print!("{n:>19}");
        }
        println!();
    }

    // The full PATH-REPORT for the paper's scheme of record.
    let (_, ib_report) = reports
        .iter()
        .find(|(s, _)| *s == SchemeKind::InterestBased)
        .expect("IB ran");
    println!("\n{ib_report}");

    // Deterministic: a second observed run renders identical bytes.
    let observer = RunObserver::new();
    let cfg = CorpusStudyConfig {
        scheme: SchemeKind::InterestBased,
        ..config.clone()
    };
    run_corpus_study_full(trace, &cfg, Some(&observer));
    let again = path_report(
        "haggle_mini",
        &observer.finish(),
        &followers,
        SchemeKind::InterestBased,
        3,
    );
    assert_eq!(&again, ib_report, "PATH-REPORT must be deterministic");

    println!("ok: exhaustive, deterministic delivery forensics across all five schemes");
}
