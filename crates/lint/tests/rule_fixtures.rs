//! Every rule must fire on its bad fixture and stay silent on its good
//! twin. Fixtures are linted as source strings under synthetic
//! workspace paths, so crate scoping (panic crates, wall-clock
//! exemptions, ordered-output and wire files) is exercised exactly as
//! in a real run.

use sos_lint::{lint_source, Config, LintReport};

fn lint(rel_path: &str, src: &str) -> LintReport {
    lint_source(rel_path, src, &Config::sos_defaults())
}

fn rules_fired(report: &LintReport) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn no_panic_fires_on_bad_and_not_on_good() {
    let bad = lint(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_panic_bad.rs"),
    );
    assert_eq!(rules_fired(&bad), ["no-panic"]);
    // unwrap, expect, panic!, unreachable!, todo!, unimplemented!
    assert_eq!(bad.findings.len(), 6, "{:#?}", bad.findings);

    let good = lint(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_panic_good.rs"),
    );
    assert!(good.is_clean(), "{:#?}", good.findings);
}

#[test]
fn no_panic_scopes_to_protocol_crates() {
    // The same panicking source is fine in a crate outside the
    // panic-free set (sos-obs is not in it).
    let report = lint(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/no_panic_bad.rs"),
    );
    assert!(report.is_clean(), "{:#?}", report.findings);
}

#[test]
fn no_panic_follows_a_wire_file_into_any_crate() {
    // sos-sim is not a panic-free crate, but the byte reader every
    // codec parses through lives there: the rule goes with the file.
    let src = include_str!("fixtures/no_panic_bad.rs");
    let bad = lint("crates/sim/src/codec.rs", src);
    assert_eq!(rules_fired(&bad), ["no-panic"]);
    assert_eq!(bad.findings.len(), 6, "{:#?}", bad.findings);
    assert!(lint("crates/sim/src/world.rs", src).is_clean());
    // The certificate codec is a wire file too.
    let narrow = include_str!("fixtures/no_narrow_cast_bad.rs");
    assert_eq!(
        rules_fired(&lint("crates/crypto/src/cert.rs", narrow)),
        ["no-narrow-cast"]
    );
}

#[test]
fn no_wallclock_fires_outside_exempt_crates() {
    let src = include_str!("fixtures/no_wallclock.rs");
    let bad = lint("crates/net/src/fixture.rs", src);
    assert_eq!(rules_fired(&bad), ["no-wallclock"]);
    assert_eq!(bad.findings.len(), 2, "{:#?}", bad.findings);

    // The observability and bench crates are the sanctioned readers.
    assert!(lint("crates/obs/src/fixture.rs", src).is_clean());
    assert!(lint("crates/bench/src/fixture.rs", src).is_clean());
}

#[test]
fn no_hash_order_fires_in_ordered_output_files_only() {
    let src = include_str!("fixtures/no_hash_order.rs");
    let bad = lint("crates/trace/src/record.rs", src);
    assert_eq!(rules_fired(&bad), ["no-hash-order"]);
    assert!(!bad.findings.is_empty());

    // The trace pipeline's pair table and its analytics reader are
    // ordered-output files too: the table's slot order is how hash
    // order could reach a timeline or a report.
    for path in [
        "crates/trace/src/pair_table.rs",
        "crates/trace/src/analytics.rs",
    ] {
        assert_eq!(rules_fired(&lint(path, src)), ["no-hash-order"], "{path}");
    }

    // Same source away from encoded output: no findings.
    assert!(lint("crates/trace/src/synthetic.rs", src).is_clean());

    // Ordered collections pass even in ordered-output files.
    let good = lint(
        "crates/trace/src/record.rs",
        include_str!("fixtures/no_hash_order_good.rs"),
    );
    assert!(good.is_clean(), "{:#?}", good.findings);
}

#[test]
fn no_narrow_cast_fires_on_bad_and_not_on_good() {
    let bad = lint(
        "crates/net/src/frame.rs",
        include_str!("fixtures/no_narrow_cast_bad.rs"),
    );
    assert_eq!(rules_fired(&bad), ["no-narrow-cast"]);
    // .len() as u16, from_le_bytes as u32, .round() as u64
    assert_eq!(bad.findings.len(), 3, "{:#?}", bad.findings);

    let good = lint(
        "crates/net/src/frame.rs",
        include_str!("fixtures/no_narrow_cast_good.rs"),
    );
    assert!(good.is_clean(), "{:#?}", good.findings);
}

#[test]
fn no_narrow_cast_scopes_to_wire_files() {
    // The same casts in a non-wire file are out of scope (clippy and
    // review carry those).
    let report = lint(
        "crates/net/src/discovery.rs",
        include_str!("fixtures/no_narrow_cast_bad.rs"),
    );
    assert!(report.is_clean(), "{:#?}", report.findings);
}

#[test]
fn no_unbounded_prealloc_fires_on_bad_and_not_on_good() {
    let bad = lint(
        "crates/trace/src/codec_fixture.rs",
        include_str!("fixtures/no_unbounded_prealloc_bad.rs"),
    );
    assert_eq!(rules_fired(&bad), ["no-unbounded-prealloc"]);
    // with_capacity, reserve, resize — all from the wire-read count.
    assert_eq!(bad.findings.len(), 3, "{:#?}", bad.findings);

    let good = lint(
        "crates/trace/src/codec_fixture.rs",
        include_str!("fixtures/no_unbounded_prealloc_good.rs"),
    );
    assert!(good.is_clean(), "{:#?}", good.findings);
}

#[test]
fn findings_carry_location_and_excerpt() {
    let bad = lint(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/no_panic_bad.rs"),
    );
    let unwrap_finding = bad
        .findings
        .iter()
        .find(|f| f.excerpt.contains("unwrap"))
        .expect("an unwrap finding");
    assert_eq!(unwrap_finding.file, "crates/core/src/fixture.rs");
    assert_eq!(unwrap_finding.line, 4);
}
