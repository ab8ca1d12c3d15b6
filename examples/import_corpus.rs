//! Import real-trace corpora → sanitize → characterize → evaluate.
//!
//! The *in vivo* loop over published datasets: for each committed
//! miniature fixture (CRAWDAD haggle/infocom-style `CONN` log — plain
//! and gzip-framed — Reality-Mining-style Bluetooth scans, SASSY-style
//! ranging intervals) this example
//!
//! 1. imports and sanitizes the noisy log, printing the
//!    [`ImportReport`] that accounts for every repaired/dropped line;
//! 2. asserts the import's inter-contact CCDF matches the committed
//!    expected fingerprint curve (the standard identity check for
//!    encounter datasets);
//! 3. round-trips the trace — including the node-id remapping — through
//!    both codecs;
//! 4. runs **all five** routing schemes on the imported timeline via
//!    the replay driver and prints the comparison table.
//!
//! ```sh
//! cargo run --release --example import_corpus
//! # regenerate the committed fingerprint curves after editing fixtures:
//! SOS_WRITE_FINGERPRINTS=1 cargo run --release --example import_corpus
//! ```
//!
//! [`ImportReport`]: sos::trace::corpora::ImportReport

use sos::core::routing::SchemeKind;
use sos::engine::run_replicas;
use sos::experiments::corpus::{corpus_study, CorpusStudyConfig};
use sos::experiments::driver::run_study;
use sos::experiments::report::summary_table;
use sos::trace::corpora::{check_ccdf_fingerprint, import_bytes, CorpusFormat, ImportedCorpus};
use sos::trace::{codec_binary, codec_text, TraceAnalytics};
use std::path::PathBuf;

/// Where the committed fingerprints are evaluated, hours.
const CCDF_XS_HOURS: [f64; 8] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0];
/// Absolute tolerance on each CCDF point.
const CCDF_TOLERANCE: f64 = 0.02;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/trace/tests/fixtures")
        .join(name)
}

fn check_or_write_fingerprint(stem: &str, analytics: &TraceAnalytics) {
    let path = fixture_path(&format!("{stem}.ccdf"));
    let measured = analytics.intercontact_ccdf(&CCDF_XS_HOURS);
    if std::env::var_os("SOS_WRITE_FINGERPRINTS").is_some() {
        let mut out = String::from("# inter-contact CCDF fingerprint: <x_hours> <P(gap > x)>\n");
        for (x, p) in &measured {
            out.push_str(&format!("{x} {p:.6}\n"));
        }
        std::fs::write(&path, out).expect("write fingerprint");
        println!("  wrote fingerprint {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fingerprint {}: {e}", path.display()));
    let checked = check_ccdf_fingerprint(analytics, &expected, CCDF_TOLERANCE)
        .unwrap_or_else(|e| panic!("{stem}: {e}"));
    assert!(
        checked >= CCDF_XS_HOURS.len(),
        "{stem}: fingerprint too short"
    );
    println!("  fingerprint ok: {checked} CCDF points within {CCDF_TOLERANCE}");
}

fn codec_round_trip(corpus: &ImportedCorpus) {
    let via_text = codec_text::from_text(&codec_text::to_text(&corpus.trace)).expect("text codec");
    let via_bin =
        codec_binary::from_binary(&codec_binary::to_binary(&corpus.trace)).expect("binary codec");
    assert_eq!(via_text, corpus.trace, "text round trip must be exact");
    assert_eq!(via_bin, corpus.trace, "binary round trip must be exact");
    assert_eq!(
        via_bin.node_labels().expect("labels survive"),
        corpus.id_map.labels(),
        "node-id remapping must survive the codecs"
    );
}

fn main() {
    let fixtures: [(&str, &str, CorpusFormat); 3] = [
        ("haggle_mini", "haggle_mini.conn", CorpusFormat::Crawdad),
        (
            "reality_mini",
            "reality_mini.txt",
            CorpusFormat::RealityMining,
        ),
        ("sassy_mini", "sassy_mini.csv", CorpusFormat::Sassy),
    ];

    for (stem, file, format) in fixtures {
        println!("=== {file} ===");
        let bytes = std::fs::read(fixture_path(file)).expect("read fixture");
        let corpus = import_bytes(format, &bytes).expect("import fixture");
        print!("{}", corpus.report.summary());
        assert!(
            corpus.report.accounts_for_everything(),
            "{file}: report does not account for every line: {:?}",
            corpus.report
        );

        let analytics = TraceAnalytics::compute(&corpus.trace);
        println!("{}", analytics.report());
        check_or_write_fingerprint(stem, &analytics);
        codec_round_trip(&corpus);

        // All five schemes on the real-deployment timeline.
        let outcomes = run_replicas(SchemeKind::ALL.to_vec(), 0, |_, scheme| {
            let config = CorpusStudyConfig {
                scheme,
                total_posts: 30,
                ..CorpusStudyConfig::default()
            };
            run_study(corpus_study(&corpus.trace, &config), None)
        });
        let rows: Vec<_> = outcomes
            .iter()
            .map(|o| (vec![o.scheme.name().to_string()], o.summary()))
            .collect();
        print!("{}", summary_table("scheme", &rows));
        for o in &outcomes {
            assert_eq!(
                o.metrics.posts, 30,
                "{:?} must complete the workload",
                o.scheme
            );
            assert_eq!(o.metrics.security_alerts, 0, "{:?} raised alerts", o.scheme);
        }
        assert!(
            outcomes.iter().any(|o| !o.metrics.delays.is_empty()),
            "{file}: no scheme delivered anything"
        );
        println!();
    }

    // The gzip-framed copy must import identically to the plain file.
    println!("=== haggle_mini.conn.gz (gzip framing) ===");
    let plain = import_bytes(
        CorpusFormat::Crawdad,
        &std::fs::read(fixture_path("haggle_mini.conn")).expect("read fixture"),
    )
    .expect("plain import");
    let zipped = import_bytes(
        CorpusFormat::Crawdad,
        &std::fs::read(fixture_path("haggle_mini.conn.gz")).expect("read gz fixture"),
    )
    .expect("gz import");
    assert_eq!(
        plain.trace, zipped.trace,
        "gzip framing must be transparent"
    );
    assert_eq!(plain.report.sanitize, zipped.report.sanitize);
    println!("  gz import identical to plain import");

    println!("\nok: corpora import -> sanitize -> fingerprint -> all-scheme replay");
}
