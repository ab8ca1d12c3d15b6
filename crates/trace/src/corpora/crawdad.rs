//! CRAWDAD haggle/infocom-style importer: ONE-simulator `CONN`
//! connectivity logs.
//!
//! The Haggle/Infocom Bluetooth experiments (and many CRAWDAD
//! republications) circulate as ONE connectivity traces — one contact
//! transition per line:
//!
//! ```text
//! <time_s> CONN <id_a> <id_b> <up|down>
//! ```
//!
//! Times are fractional seconds; device ids are whatever the
//! deployment used (sparse 1-based integers for the iMotes, hex for
//! MAC-derived ids). Unlike the strict parser in
//! [`codec_text`](crate::codec_text), this importer expects real-log
//! noise — out-of-order lines, self-contacts, duplicate transitions,
//! contacts dangling at the end of the study — and routes everything
//! through the [`sanitize`](fn@crate::corpora::sanitize) pipeline,
//! counting each repair in the returned [`ImportReport`].

use crate::codec_text::{parse_phase, parse_secs_as_millis};
use crate::corpora::sanitize::{IdTable, Transition};
use crate::corpora::{ImportReport, ImportedCorpus};
use crate::error::TraceError;
use crate::scan::{split, Lines};

/// Imports a CRAWDAD/ONE `CONN` log, sanitizing real-log noise.
///
/// Syntax errors (lines that are not blank, comments, or five-token
/// `CONN` records) are hard [`TraceError::Parse`] failures with the
/// line number — hardening is for *semantic* noise, not for feeding
/// the importer the wrong file.
pub fn import_str(text: &str) -> Result<ImportedCorpus, TraceError> {
    let mut ids = IdTable::default();
    let mut raw: Vec<Transition> = Vec::new();
    let mut lines = Lines::new(text);
    while let Some((line, content)) = lines.next_record() {
        let ([time, conn, a, b, phase], count) = split::<5>(content);
        if count != 5 || !conn.eq_ignore_ascii_case("CONN") {
            return Err(TraceError::Parse {
                line,
                reason: format!("expected `<time_s> CONN <a> <b> <up|down>`, got {content:?}"),
            });
        }
        // Time and phase parsing are shared with the strict parser in
        // `codec_text::from_text`, so the two CONN readers cannot
        // drift; only the noise policy differs (sanitize vs error).
        let time_ms = parse_secs_as_millis(time, line)?;
        let phase = parse_phase(phase, line)?;
        raw.push(Transition {
            time_ms,
            a: ids.device(a, line)?,
            b: ids.device(b, line)?,
            phase,
            distance_m: 0.0,
            line,
        });
    }
    let report = ImportReport {
        format: "crawdad-conn",
        lines_total: lines.lines_read(),
        lines_skipped: lines.lines_skipped(),
        records: raw.len(),
        ..ImportReport::default()
    };
    report.finish(&ids, raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_conn_log_imports_without_repairs() {
        let text = "# infocom-mini\n\
                    0.0 CONN 1 3 up\n\
                    120.5 CONN 1 3 down\n\
                    300 CONN 3 9 up\n\
                    400 CONN 3 9 down\n";
        let corpus = import_str(text).unwrap();
        assert!(corpus.report.sanitize.is_clean());
        assert!(
            corpus.report.accounts_for_everything(),
            "{:?}",
            corpus.report
        );
        assert_eq!(corpus.trace.node_count(), 3);
        assert_eq!(corpus.id_map.labels(), ["1", "3", "9"]);
        assert_eq!(
            corpus.trace.events().nth(1).unwrap().time.as_millis(),
            120_500
        );
    }

    #[test]
    fn noisy_log_is_repaired_and_counted() {
        let text = "10 CONN 4 4 up\n\
                    0 CONN 1 3 up\n\
                    50 CONN 3 1 up\n\
                    60 CONN 1 3 down\n\
                    20 CONN 1 9 up\n\
                    100 CONN 9 1 down\n\
                    200 CONN 3 9 up\n";
        let corpus = import_str(text).unwrap();
        let s = &corpus.report.sanitize;
        assert_eq!(s.self_contacts_dropped, 1);
        assert_eq!(s.duplicate_ups_dropped, 1);
        assert_eq!(s.out_of_order_events, 1);
        assert_eq!(s.dangling_contacts_closed, 1);
        assert!(
            corpus.report.accounts_for_everything(),
            "{:?}",
            corpus.report
        );
        // 7 records - 1 self - 1 dup + 1 dangling close = 6 events.
        assert_eq!(corpus.trace.len(), 6);
    }

    #[test]
    fn garbage_is_a_parse_error_with_the_line() {
        for (text, want_line) in [
            ("0 CONN 1 2 up\nnot a record\n", 2),
            ("0 CONN 1 2 sideways\n", 1),
            ("1e300 CONN 1 2 up\n", 1),
            ("zzz CONN 1 2 up\n", 1),
        ] {
            match import_str(text).unwrap_err() {
                TraceError::Parse { line, .. } => assert_eq!(line, want_line, "{text:?}"),
                other => panic!("{text:?}: expected Parse, got {other:?}"),
            }
        }
    }
}
