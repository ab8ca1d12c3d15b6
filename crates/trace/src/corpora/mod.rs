//! Importers for published real-world encounter corpora.
//!
//! The paper's core claim is *in vivo* evaluation: routing schemes
//! judged on real human encounter patterns, not synthetic geometry.
//! This module turns the published datasets of the DTN literature into
//! valid [`ContactTrace`]s the replay driver can run every scheme on:
//!
//! * [`crawdad`] — haggle/infocom-style ONE `CONN` connectivity logs;
//! * [`reality`] — Reality-Mining-style Bluetooth scan sightings, with
//!   scan-interval → contact-interval inference;
//! * [`sassy`] — SASSY-style ranging logs (one interval per record);
//! * [`inflate`] — minimal vendored gzip/DEFLATE reader (stored +
//!   fixed-Huffman) for gzip-framed inputs, no external deps;
//! * [`sanitize`](mod@sanitize) — the shared repair pipeline for
//!   real-log noise.
//!
//! Real corpora are noisy. Every importer routes its parsed
//! transitions through the sanitizer — stable-sorting out-of-order
//! lines, dropping self-contacts, collapsing duplicate `up/up` /
//! `down/down` transitions, closing contacts left dangling at the end
//! of the study — and **counts every repair** in an [`ImportReport`]
//! instead of silently mutating data. Original device identifiers
//! (sparse 1-based integers, hex MACs) are remapped to dense node
//! indices with the mapping preserved as node labels, which both
//! codecs round-trip (`# node_ids` header / binary label section).
//!
//! Every importer reads its lines through the crate's one line
//! scanner (numbering, trimming, blank/`#` skipping, one leading
//! byte-order mark, allocation-free field splitting) and **interns
//! device ids at parse time**: a token becomes a small integer in the
//! import's id table the moment it is read, the sanitizer runs on
//! `Copy` transitions carrying those integers, and the adapters'
//! tie-break sorts compare labels through the table's lexical ranks.
//! No adapter builds a string-keyed [`RawEvent`]; that type is the
//! input of the public [`sanitize()`] front only.
//!
//! The acceptance check for an import is its [`TraceAnalytics`]
//! inter-contact CCDF fingerprint: `crates/trace/tests/fixtures/`
//! holds miniature files per format together with their expected
//! curves, asserted in `tests/corpora_import.rs`, whose failure message
//! carries the measured curve in the same format.
//!
//! [`TraceAnalytics`]: crate::TraceAnalytics

pub mod crawdad;
pub mod inflate;
pub mod reality;
pub mod sanitize;
pub mod sassy;

use crate::analytics::TraceAnalytics;
use crate::error::TraceError;
use crate::record::ContactTrace;
use crate::scan::{split, Lines};
use sanitize::{sanitize_interned, IdTable, Transition};
use std::fmt::Write as _;

pub use sanitize::{raw_events_from_trace, sanitize, NodeIdMap, RawEvent, SanitizeReport};

/// The supported corpus formats, for byte-level dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusFormat {
    /// CRAWDAD haggle/infocom-style ONE `CONN` logs ([`crawdad`]).
    Crawdad,
    /// Reality-Mining-style Bluetooth sightings ([`reality`], default
    /// scan parameters).
    RealityMining,
    /// SASSY-style interval/ranging CSV ([`sassy`]).
    Sassy,
}

/// A successfully imported corpus: the sanitized trace, the node-id
/// mapping, and the full accounting of what import did.
#[derive(Clone, Debug)]
pub struct ImportedCorpus {
    /// The valid, labeled encounter timeline.
    pub trace: ContactTrace,
    /// Dense index ↔ original device id mapping.
    pub id_map: NodeIdMap,
    /// What was parsed, repaired, and dropped.
    pub report: ImportReport,
}

/// Everything an import did, fully accounting for every input line:
/// no record is repaired or dropped without a counter incrementing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Which adapter produced this import.
    pub format: &'static str,
    /// Total lines in the input.
    pub lines_total: usize,
    /// Blank, comment, and header lines.
    pub lines_skipped: usize,
    /// Format-native records parsed (transitions, sightings, or
    /// interval rows, per format).
    pub records: usize,
    /// Records the adapter dropped as semantically impossible (e.g. a
    /// SASSY row with `end < start`).
    pub records_dropped: usize,
    /// Records whose timestamp ran backwards in file order and were
    /// re-sorted by the adapter (formats that inherently reorder).
    pub records_out_of_order: usize,
    /// Contact transitions handed to the sanitizer.
    pub raw_events: usize,
    /// What the sanitizer repaired, per class.
    pub sanitize: SanitizeReport,
    /// Distinct devices after id remapping.
    pub nodes: usize,
    /// Events in the final valid timeline.
    pub final_events: usize,
}

impl ImportReport {
    /// Runs an adapter's interned transitions through the sanitizer
    /// and completes this report, whose parse counters the adapter
    /// filled, with what the pipeline did.
    pub(crate) fn finish(
        mut self,
        ids: &IdTable,
        raw: Vec<Transition>,
    ) -> Result<ImportedCorpus, TraceError> {
        self.raw_events = raw.len();
        let (trace, id_map, sanitize) = sanitize_interned(ids, raw, None)?;
        (self.sanitize, self.nodes) = (sanitize, trace.node_count());
        self.final_events = trace.len();
        Ok(ImportedCorpus {
            trace,
            id_map,
            report: self,
        })
    }

    /// The bookkeeping identity: every input line is either skipped or
    /// a record, and every raw event is either in the final timeline
    /// or counted as dropped (dangling closes are the only additions).
    /// Import tests assert this for every fixture.
    pub fn accounts_for_everything(&self) -> bool {
        let s = &self.sanitize;
        self.lines_total == self.lines_skipped + self.records
            && self.records_dropped <= self.records
            && self.final_events
                + s.self_contacts_dropped
                + s.duplicate_ups_dropped
                + s.orphan_downs_dropped
                == self.raw_events + s.dangling_contacts_closed
    }

    /// A human-readable import summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "imported {} lines as {} ({} skipped): {} records -> {} events over {} nodes",
            self.lines_total,
            self.format,
            self.lines_skipped,
            self.records,
            self.final_events,
            self.nodes,
        );
        let s = &self.sanitize;
        let repairs: [(usize, &str); 8] = [
            (self.records_dropped, "impossible records dropped"),
            (self.records_out_of_order, "records re-sorted"),
            (s.self_contacts_dropped, "self-contacts dropped"),
            (s.out_of_order_events, "events re-sorted"),
            (s.duplicate_ups_dropped, "duplicate ups dropped"),
            (s.orphan_downs_dropped, "orphan downs dropped"),
            (s.dangling_contacts_closed, "dangling contacts closed"),
            (s.bad_distances_zeroed, "bad distances zeroed"),
        ];
        let mut clean = true;
        for (n, what) in repairs.into_iter().filter(|&(n, _)| n > 0) {
            clean = false;
            let _ = writeln!(out, "  {n} {what}");
        }
        if clean {
            let _ = writeln!(out, "  clean: no repairs needed");
        }
        // Provenance: which source lines lost events (capped display).
        let lines: Vec<usize> = s.dropped_lines.iter().copied().filter(|&l| l > 0).collect();
        if !lines.is_empty() {
            let shown: Vec<String> = lines.iter().take(8).map(usize::to_string).collect();
            let more = lines.len().saturating_sub(8);
            let suffix = (more > 0).then(|| format!(" (+{more} more)"));
            let suffix = suffix.unwrap_or_default();
            let _ = writeln!(out, "  dropped from lines: {}{}", shown.join(", "), suffix);
        }
        out
    }
}

/// Validates a device-id token at parse time, so a malformed id is a
/// line-numbered [`TraceError::Parse`] instead of a label-validation
/// failure deep in the trace constructor. Ids must be non-empty and
/// free of whitespace/control characters (the same contract
/// [`ContactTrace::new_labeled`] enforces on labels).
pub(crate) fn validate_device_id(id: &str, line: usize) -> Result<(), TraceError> {
    if id.is_empty() || id.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(TraceError::Parse {
            line,
            reason: format!("bad device id {id:?}"),
        });
    }
    Ok(())
}

/// Checks a committed inter-contact CCDF fingerprint (`<x_hours>
/// <P(gap > x)>` lines, `#` comments) against a trace's analytics.
///
/// Every point must match within `tolerance` (absolute). Returns the
/// number of points checked on success: the one acceptance check the
/// fixture tests apply.
pub fn check_ccdf_fingerprint(
    analytics: &TraceAnalytics,
    expected: &str,
    tolerance: f64,
) -> Result<usize, String> {
    let mut checked = 0usize;
    let mut lines = Lines::new(expected);
    while let Some((number, line)) = lines.next_record() {
        let ([x, p], _) = split::<2>(line);
        let (Ok(x), Ok(p)) = (x.parse::<f64>(), p.parse::<f64>()) else {
            return Err(format!(
                "fingerprint line {number}: expected `<x_hours> <p>`, got {line:?}"
            ));
        };
        let got = analytics.intercontact_hours.fraction_gt(x);
        if (got - p).abs() > tolerance {
            return Err(format!(
                "CCDF at {x} h drifted: expected {p:.4}, got {got:.4} (tolerance {tolerance})"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Imports corpus bytes in the given format, transparently
/// decompressing gzip framing first (detected by magic).
pub fn import_bytes(format: CorpusFormat, bytes: &[u8]) -> Result<ImportedCorpus, TraceError> {
    let _span = sos_obs::profile::span("trace/corpus_import");
    let plain;
    let bytes = if inflate::is_gzip(bytes) {
        plain = inflate::gunzip(bytes)?;
        &plain[..]
    } else {
        bytes
    };
    let text = std::str::from_utf8(bytes).map_err(|e| TraceError::Parse {
        line: 0,
        reason: format!("input is not UTF-8 (byte offset {})", e.valid_up_to()),
    })?;
    match format {
        CorpusFormat::Crawdad => crawdad::import_str(text),
        CorpusFormat::RealityMining => {
            reality::import_str(text, &reality::RealityConfig::default())
        }
        CorpusFormat::Sassy => sassy::import_str(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_bytes_transparently_gunzips() {
        let text = "0 CONN 1 2 up\n60 CONN 1 2 down\n";
        let plain = import_bytes(CorpusFormat::Crawdad, text.as_bytes()).unwrap();
        let gz = inflate::gzip_stored(text.as_bytes());
        let zipped = import_bytes(CorpusFormat::Crawdad, &gz).unwrap();
        assert_eq!(plain.trace, zipped.trace);
        assert_eq!(plain.report, zipped.report);
        // Corrupt gzip surfaces as a Gzip error, not a parse error.
        let mut bad = gz.clone();
        let n = bad.len();
        bad[n - 3] ^= 1;
        assert!(matches!(
            import_bytes(CorpusFormat::Crawdad, &bad),
            Err(TraceError::Gzip { .. })
        ));
    }

    #[test]
    fn a_leading_byte_order_mark_is_not_part_of_line_one() {
        // A corpus that passed through a Windows tool starts with
        // U+FEFF; it used to make line 1 `bad time "\u{feff}0"` (or,
        // for SASSY, turn the first row into a skipped "header").
        for (format, text) in [
            (CorpusFormat::Crawdad, "0 CONN 1 2 up\n60 CONN 1 2 down\n"),
            (CorpusFormat::RealityMining, "0 aa bb\n300 aa bb\n"),
            (CorpusFormat::Sassy, "T1,T2,0,60,4.5\nT2,T3,30,90\n"),
        ] {
            let plain = import_bytes(format, text.as_bytes()).unwrap();
            let marked = format!("\u{feff}{text}");
            let with_bom = import_bytes(format, marked.as_bytes()).unwrap();
            assert_eq!(with_bom.trace, plain.trace, "{format:?}");
            assert_eq!(with_bom.report, plain.report, "{format:?}");
            assert!(!plain.trace.is_empty(), "{format:?}");
            // Inside a gzip frame too: the mark is stripped from the
            // text, after decompression.
            let zipped = import_bytes(format, &inflate::gzip_stored(marked.as_bytes())).unwrap();
            assert_eq!(zipped.trace, plain.trace, "{format:?} gzip");
            // Only the first one, and only at the very start: a mark
            // anywhere else is part of a token — a bad time where a
            // line starts with one, a device nobody else names where
            // it starts with an id (SASSY).
            for bad in [
                format!("\u{feff}\u{feff}{text}"),
                format!("\n\u{feff}{text}"),
                format!("{text}\u{feff}{text}"),
            ] {
                match import_bytes(format, bad.as_bytes()) {
                    Err(TraceError::Parse { reason, .. }) => {
                        assert!(reason.contains("bad time"), "{format:?}: {reason}")
                    }
                    Ok(corpus) if format == CorpusFormat::Sassy => {
                        assert!(corpus.id_map.index_of("\u{feff}T1").is_some())
                    }
                    other => panic!("{format:?}: {other:?}"),
                }
            }
        }
        // A marked comment line is still a comment line.
        let corpus = import_bytes(
            CorpusFormat::Crawdad,
            "\u{feff}# log\n0 CONN 1 2 up\n".as_bytes(),
        );
        assert_eq!(corpus.unwrap().report.lines_skipped, 1);
    }

    #[test]
    fn non_utf8_input_is_a_typed_error() {
        let err = import_bytes(CorpusFormat::Sassy, &[0x80, 0xff, 0xfe]).unwrap_err();
        assert!(matches!(err, TraceError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn summary_mentions_every_repair_class() {
        let text = "10 CONN 4 4 up\n0 CONN 1 3 up\n50 CONN 3 1 up\n";
        let corpus = import_bytes(CorpusFormat::Crawdad, text.as_bytes()).unwrap();
        let summary = corpus.report.summary();
        assert!(summary.contains("self-contacts dropped"), "{summary}");
        assert!(summary.contains("duplicate ups dropped"), "{summary}");
        assert!(summary.contains("dangling contacts closed"), "{summary}");
    }
}
