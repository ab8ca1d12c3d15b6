//! Corpus-importer acceptance tests over the committed miniature
//! fixtures, plus the decode/sanitize hardening properties:
//!
//! * every fixture imports with an `ImportReport` that accounts for
//!   every repaired/dropped line (exact per-class counts asserted);
//! * each fixture's inter-contact CCDF matches its committed expected
//!   fingerprint curve within tolerance;
//! * the node-id remapping survives both codecs;
//! * `codec_binary::decode` never panics on arbitrary, truncated, or
//!   bit-flipped inputs (fuzz);
//! * `sanitize` is a fixpoint: sanitizing sanitized output changes
//!   nothing and reports zero repairs.

use proptest::prelude::*;
use sos_sim::world::ContactPhase;
use sos_trace::corpora::{
    check_ccdf_fingerprint, import_bytes, inflate, raw_events_from_trace, sanitize, CorpusFormat,
    ImportedCorpus, RawEvent, SanitizeReport,
};
use sos_trace::{codec_binary, codec_text, TraceAnalytics};
use std::path::PathBuf;

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn import_fixture(name: &str, format: CorpusFormat) -> ImportedCorpus {
    let corpus = import_bytes(format, &fixture(name)).expect("fixture imports");
    assert!(
        corpus.report.accounts_for_everything(),
        "{name}: {:?}",
        corpus.report
    );
    corpus
}

/// Where the committed fingerprints are evaluated, hours.
const CCDF_XS_HOURS: [f64; 8] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0];

/// `<x_hours> <p>` lines committed next to each fixture, compared via
/// `check_ccdf_fingerprint`. A mismatch prints the measured curve in
/// the same format: after editing a fixture, paste it into the `.ccdf`
/// file.
fn assert_fingerprint(name: &str, corpus: &ImportedCorpus) {
    let expected = String::from_utf8(fixture(name)).expect("fingerprint utf-8");
    let analytics = TraceAnalytics::compute(&corpus.trace);
    let mut measured = String::from("# inter-contact CCDF fingerprint: <x_hours> <P(gap > x)>\n");
    for (x, p) in analytics.intercontact_ccdf(&CCDF_XS_HOURS) {
        measured.push_str(&format!("{x} {p:.6}\n"));
    }
    // The printed curve is itself a fingerprint this trace passes.
    assert_eq!(
        check_ccdf_fingerprint(&analytics, &measured, 1e-6),
        Ok(CCDF_XS_HOURS.len())
    );
    let checked = check_ccdf_fingerprint(&analytics, &expected, 0.02)
        .unwrap_or_else(|e| panic!("{name}: {e}; measured curve:\n{measured}"));
    assert!(
        checked >= CCDF_XS_HOURS.len(),
        "{name}: fingerprint too short; measured curve:\n{measured}"
    );
}

#[test]
fn haggle_conn_fixture_imports_with_exact_accounting() {
    let corpus = import_fixture("haggle_mini.conn", CorpusFormat::Crawdad);
    let r = &corpus.report;
    assert_eq!(r.format, "crawdad-conn");
    assert_eq!(r.records, 66);
    assert_eq!(
        r.sanitize,
        SanitizeReport {
            self_contacts_dropped: 1,
            out_of_order_events: 2,
            duplicate_ups_dropped: 1,
            orphan_downs_dropped: 1,
            dangling_contacts_closed: 1,
            bad_distances_zeroed: 0,
            // Provenance: the self-contact, duplicate-up, and
            // orphan-down source lines of the fixture, in drop order.
            dropped_lines: vec![11, 13, 17],
        },
        "{r:?}"
    );
    assert_eq!(r.nodes, 8);
    assert_eq!(r.final_events, 64);
    // Sparse 1-based iMote ids remapped densely, numerically sorted.
    assert_eq!(
        corpus.id_map.labels(),
        ["1", "3", "4", "7", "9", "12", "21", "33"]
    );
    assert_eq!(corpus.id_map.index_of("21"), Some(6));
    assert_eq!(corpus.trace.node_label(7), Some("33"));
    assert_fingerprint("haggle_mini.ccdf", &corpus);
}

#[test]
fn gzip_framed_fixture_imports_identically() {
    let plain = import_fixture("haggle_mini.conn", CorpusFormat::Crawdad);
    let zipped = import_fixture("haggle_mini.conn.gz", CorpusFormat::Crawdad);
    assert_eq!(plain.trace, zipped.trace);
    assert_eq!(plain.report.sanitize, zipped.report.sanitize);
    assert_eq!(plain.id_map, zipped.id_map);
}

#[test]
fn reality_fixture_infers_contacts_and_accounts() {
    let corpus = import_fixture("reality_mini.txt", CorpusFormat::RealityMining);
    let r = &corpus.report;
    assert_eq!(r.format, "reality-scans");
    assert_eq!(r.records, 175);
    // One displaced scan line; one self-sighting (-> one inferred
    // interval -> 2 raw transitions dropped).
    assert_eq!(r.records_out_of_order, 1);
    assert_eq!(r.sanitize.self_contacts_dropped, 2);
    assert_eq!(r.sanitize.out_of_order_events, 0);
    assert_eq!(r.nodes, 6);
    // Scan-interval inference: sighting runs became whole contacts.
    assert_eq!(r.final_events, 52);
    assert!(corpus.id_map.index_of("a1f3").is_some());
    assert_fingerprint("reality_mini.ccdf", &corpus);
}

#[test]
fn sassy_fixture_expands_intervals_and_accounts() {
    let corpus = import_fixture("sassy_mini.csv", CorpusFormat::Sassy);
    let r = &corpus.report;
    assert_eq!(r.format, "sassy-ranging");
    assert_eq!(r.records, 24);
    assert_eq!(r.records_dropped, 1, "the end<start clock-step row");
    assert_eq!(r.records_out_of_order, 1);
    assert_eq!(r.sanitize.self_contacts_dropped, 2);
    assert_eq!(
        r.sanitize.duplicate_ups_dropped, 1,
        "overlapping re-detection"
    );
    assert_eq!(r.sanitize.orphan_downs_dropped, 1);
    assert_eq!(r.sanitize.bad_distances_zeroed, 2, "negative range row");
    assert_eq!(r.nodes, 5);
    assert_eq!(corpus.id_map.labels(), ["T01", "T02", "T03", "T04", "T05"]);
    assert_fingerprint("sassy_mini.ccdf", &corpus);
}

#[test]
fn imported_node_id_mapping_survives_both_codecs() {
    for (name, format) in [
        ("haggle_mini.conn", CorpusFormat::Crawdad),
        ("reality_mini.txt", CorpusFormat::RealityMining),
        ("sassy_mini.csv", CorpusFormat::Sassy),
    ] {
        let corpus = import_fixture(name, format);
        let text = codec_text::to_text(&corpus.trace);
        assert!(text.contains("# node_ids "), "{name}");
        let via_text = codec_text::from_text(&text).expect("text round trip");
        let via_bin = codec_binary::from_binary(&codec_binary::to_binary(&corpus.trace))
            .expect("binary round trip");
        assert_eq!(via_text, corpus.trace, "{name}");
        assert_eq!(via_bin, corpus.trace, "{name}");
        assert_eq!(
            via_bin.node_labels().expect("labels"),
            corpus.id_map.labels(),
            "{name}"
        );
    }
}

#[test]
fn sanitizing_an_imported_fixture_again_is_a_fixpoint() {
    for (name, format) in [
        ("haggle_mini.conn", CorpusFormat::Crawdad),
        ("reality_mini.txt", CorpusFormat::RealityMining),
        ("sassy_mini.csv", CorpusFormat::Sassy),
    ] {
        let corpus = import_fixture(name, format);
        let (again, _, report) =
            sanitize(raw_events_from_trace(&corpus.trace), corpus.trace.range_m())
                .expect("re-sanitize");
        assert_eq!(again, corpus.trace, "{name}: second pass changed the trace");
        assert!(
            report.is_clean(),
            "{name}: second pass repaired: {report:?}"
        );
    }
}

/// Raw-event soup for the sanitizer properties: small id pool, mixed
/// phases, distances including negatives and huge values.
fn raw_soup() -> impl Strategy<Value = Vec<RawEvent>> {
    prop::collection::vec(
        (
            0u64..200_000u64,
            0usize..5,
            0usize..5,
            any::<bool>(),
            0u32..2_000_000,
        ),
        0..60,
    )
    .prop_map(|tuples| {
        let ids = ["7", "im12", "3c4a", "T04", "99"];
        tuples
            .into_iter()
            .map(|(t, a, b, up, d)| RawEvent {
                time_ms: t,
                a: ids[a].to_string(),
                b: ids[b].to_string(),
                phase: if up {
                    ContactPhase::Up
                } else {
                    ContactPhase::Down
                },
                distance_m: (f64::from(d) - 1_000_000.0) / 997.0,
                line: 0,
            })
            .collect()
    })
}

proptest! {
    /// Arbitrary noise always sanitizes into a valid trace, and the
    /// report accounts for every event.
    #[test]
    fn sanitize_always_yields_a_valid_accounted_trace(raw in raw_soup()) {
        let n = raw.len();
        let (trace, _, report) = sanitize(raw, None).expect("sanitize never fails");
        prop_assert_eq!(
            trace.len() + report.self_contacts_dropped + report.duplicate_ups_dropped
                + report.orphan_downs_dropped,
            n + report.dangling_contacts_closed
        );
    }

    /// Fixpoint: sanitize(sanitize(x)) == sanitize(x), with a clean
    /// second report.
    #[test]
    fn sanitize_is_a_fixpoint_on_arbitrary_noise(raw in raw_soup()) {
        let (once, _, _) = sanitize(raw, Some(60.0)).expect("first pass");
        let (twice, _, second) =
            sanitize(raw_events_from_trace(&once), Some(60.0)).expect("second pass");
        prop_assert_eq!(twice, once);
        prop_assert!(second.is_clean(), "{:?}", second);
    }

    /// Decode-corruption fuzz: arbitrary bytes never panic the binary
    /// decoder (with or without a valid magic prefix).
    #[test]
    fn binary_decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        with_magic in any::<bool>(),
    ) {
        let _ = codec_binary::from_binary(&bytes);
        if with_magic {
            let mut prefixed = b"SOSTRC01".to_vec();
            prefixed.extend_from_slice(&bytes);
            let _ = codec_binary::from_binary(&prefixed);
        }
    }

    /// Truncations and single-byte corruptions of a *valid* encoding
    /// (labels included) never panic the decoder either.
    #[test]
    fn binary_decode_survives_truncation_and_bit_flips(
        cut in 0usize..2000,
        flip_at in 0usize..2000,
        mask in 1u8..=255,
    ) {
        let corpus = import_bytes(
            CorpusFormat::Crawdad,
            &fixture("haggle_mini.conn"),
        ).expect("fixture imports");
        let good = codec_binary::to_binary(&corpus.trace);
        let _ = codec_binary::from_binary(&good[..cut.min(good.len())]);
        let mut flipped = good.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= mask;
        // Must error or decode to a (possibly different) valid trace —
        // never panic, never accept an invalid timeline.
        if let Ok(t) = codec_binary::from_binary(&flipped) {
            prop_assert!(t.events().iter().all(|ev| ev.a < ev.b && ev.b < t.node_count()));
        }
    }

    /// The vendored gzip reader round-trips its stored-block writer on
    /// arbitrary payloads.
    #[test]
    fn gunzip_round_trips_stored_frames(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        prop_assert_eq!(inflate::gunzip(&inflate::gzip_stored(&data)).unwrap(), data);
    }

    /// Corrupting a gzip frame errors instead of panicking.
    #[test]
    fn gunzip_never_panics_on_corruption(
        data in prop::collection::vec(any::<u8>(), 1..200),
        flip_at in 0usize..1000,
        mask in 1u8..=255,
    ) {
        let mut gz = inflate::gzip_stored(&data);
        let at = flip_at % gz.len();
        gz[at] ^= mask;
        let _ = inflate::gunzip(&gz);
        let _ = inflate::gunzip(&data);
    }
}
