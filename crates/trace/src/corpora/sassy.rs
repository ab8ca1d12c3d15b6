//! SASSY-style importer: ranging logs that record whole encounters as
//! intervals with a measured range.
//!
//! The St Andrews sensor network (SASSY) distributed its encounter
//! data as one record per contact, CSV:
//!
//! ```text
//! a,b,start_s,end_s[,range_m]
//! ```
//!
//! An optional header row and `#` comments are skipped. Each row
//! expands to an `up` transition at `start_s` and a `down` at `end_s`
//! (both carrying the measured range when present). Real logs contain
//! rows with `end <= start` (clock steps during an encounter, or
//! degenerate zero-length detections) — those are dropped and
//! counted, never silently reinterpreted — plus
//! negative ranges (sensor error codes), overlapping re-detections of
//! the same pair, and self-ranging rows, all of which the
//! [`sanitize`](fn@crate::corpora::sanitize) pipeline repairs and
//! counts. Overlapping re-detections collapse *conservatively*: the
//! state machine keeps the earliest close, so the overlap's tail is
//! dropped (and counted as a duplicate up + orphan down) rather than
//! unioned into a longer contact.

use crate::codec_text::parse_secs_as_millis;
use crate::corpora::sanitize::{IdTable, Transition};
use crate::corpora::{ImportReport, ImportedCorpus};
use crate::error::TraceError;
use crate::scan::{first_n, Lines};
use sos_sim::world::ContactPhase;

/// Imports a SASSY-style interval/ranging CSV, sanitizing the result.
pub fn import_str(text: &str) -> Result<ImportedCorpus, TraceError> {
    let mut ids = IdTable::default();
    let mut raw: Vec<Transition> = Vec::new();
    let mut first_data_line = true;
    let mut header_lines = 0usize;
    let mut records = 0usize;
    let mut records_dropped = 0usize;
    let mut records_out_of_order = 0usize;
    let mut running_max = 0u64;
    let mut lines = Lines::new(text);
    while let Some((line, content)) = lines.next_record() {
        let (fields, count) = first_n::<5>(content.split(',').map(str::trim));
        if !(4..=5).contains(&count) {
            return Err(TraceError::Parse {
                line,
                reason: format!("expected `a,b,start_s,end_s[,range_m]`, got {content:?}"),
            });
        }
        let [a, b, start, end, range] = fields;
        // Only the *first* non-blank, non-comment line is
        // header-eligible; a later non-numeric time column is a real
        // parse error (otherwise a whole wrong-format file would
        // silently import as all-headers → empty corpus).
        if first_data_line {
            first_data_line = false;
            if start.parse::<f64>().is_err() {
                header_lines += 1;
                continue;
            }
        }
        // CSV fields can be empty or hold embedded whitespace; catch
        // bad device ids here with the line number rather than letting
        // them fail label validation deep in the trace constructor.
        let (a, b) = (ids.device(a, line)?, ids.device(b, line)?);
        let start_ms = parse_secs_as_millis(start, line)?;
        let end_ms = parse_secs_as_millis(end, line)?;
        let range_m: f64 = match count {
            5 => range.parse().map_err(|_| TraceError::Parse {
                line,
                reason: format!("bad range {range:?}"),
            })?,
            _ => 0.0,
        };
        records += 1;
        if end_ms <= start_ms {
            // Non-positive-length encounter (clock step, or a
            // zero-length row): drop the whole row, counted. Zero
            // lengths cannot survive the down-before-up tie-break that
            // back-to-back intervals of the same pair require — the
            // pair would be left open until the end of the trace.
            records_dropped += 1;
            continue;
        }
        if start_ms < running_max {
            records_out_of_order += 1;
        } else {
            running_max = start_ms;
        }
        for (time_ms, phase) in [(start_ms, ContactPhase::Up), (end_ms, ContactPhase::Down)] {
            raw.push(Transition {
                time_ms,
                a,
                b,
                phase,
                distance_m: range_m,
                line,
            });
        }
    }
    let lines_total = lines.lines_read();
    let lines_skipped = lines.lines_skipped() + header_lines;

    // Interval records interleave across pairs by nature; order the
    // expanded transitions by time before the sanitizer (ties: ups
    // after downs so back-to-back intervals stay closed-then-open,
    // then by the two labels, which their lexical ranks stand in for).
    let label = ids.lexical_ranks();
    raw.sort_by_key(|ev| {
        (
            ev.time_ms,
            ev.phase == ContactPhase::Up,
            label[ev.a as usize],
            label[ev.b as usize],
        )
    });

    let report = ImportReport {
        format: "sassy-ranging",
        lines_total,
        lines_skipped,
        records,
        records_dropped,
        records_out_of_order,
        ..ImportReport::default()
    };
    report.finish(&ids, raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_rows_expand_to_transitions() {
        let text = "node_a,node_b,start,end,range_m\n\
                    T01,T02,0,60,4.5\n\
                    T02,T03,30,90,8.0\n\
                    T01,T03,120,150\n";
        let corpus = import_str(text).unwrap();
        assert!(corpus.report.sanitize.is_clean());
        assert!(
            corpus.report.accounts_for_everything(),
            "{:?}",
            corpus.report
        );
        assert_eq!(corpus.report.lines_skipped, 1); // the header
        assert_eq!(corpus.trace.node_count(), 3);
        assert_eq!(corpus.trace.len(), 6);
        assert_eq!(corpus.id_map.labels(), ["T01", "T02", "T03"]);
        let up = corpus.trace.events().next().unwrap();
        assert!((up.distance_m - 4.5).abs() < 1e-12);
    }

    #[test]
    fn noisy_rows_are_dropped_or_repaired_with_counts() {
        let text = "T1,T1,0,50,1.0\n\
                    T1,T2,10,90,2.0\n\
                    T1,T2,40,120,2.5\n\
                    T2,T3,80,20,3.0\n\
                    T3,T4,200,260,-7.0\n";
        let corpus = import_str(text).unwrap();
        let r = &corpus.report;
        // Row 1: self-ranging -> both transitions dropped by sanitizer.
        assert_eq!(r.sanitize.self_contacts_dropped, 2);
        // Rows 2+3 overlap for the same pair: the inner up and the
        // first down collapse away.
        assert_eq!(r.sanitize.duplicate_ups_dropped, 1);
        assert_eq!(r.sanitize.orphan_downs_dropped, 1);
        // Row 4: end < start, dropped whole.
        assert_eq!(r.records_dropped, 1);
        // Row 5: negative range zeroed on both transitions.
        assert_eq!(r.sanitize.bad_distances_zeroed, 2);
        assert!(r.accounts_for_everything(), "{r:?}");
        // Remaining timeline: T1-T2 [10,90], T3-T4 [200,260].
        assert_eq!(corpus.trace.len(), 4);
        assert_eq!(corpus.trace.node_count(), 4);
    }

    #[test]
    fn zero_length_rows_are_dropped_not_left_dangling() {
        // Regression: `T1,T2,60,60` used to hit the down-before-up
        // tie-break, orphan-drop its own down, and leave the pair in
        // contact until the end of the trace (here [60s, 2000s]).
        let text = "T1,T2,60,60,5.0\nT3,T4,1000,2000,1.0\n";
        let corpus = import_str(text).unwrap();
        assert_eq!(corpus.report.records_dropped, 1);
        assert!(corpus.report.sanitize.is_clean(), "{:?}", corpus.report);
        assert!(
            corpus.report.accounts_for_everything(),
            "{:?}",
            corpus.report
        );
        // Only the real T3-T4 encounter remains; T1/T2 never appear.
        assert_eq!(corpus.id_map.labels(), ["T3", "T4"]);
        let intervals = corpus.trace.intervals(corpus.trace.end_time());
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0].start.as_millis(), 1_000_000);
        assert_eq!(intervals[0].end.as_millis(), 2_000_000);
        // Back-to-back intervals of the same pair still chain cleanly.
        let text = "T1,T2,0,60,1.0\nT1,T2,60,90,1.0\n";
        let corpus = import_str(text).unwrap();
        assert!(corpus.report.sanitize.is_clean(), "{:?}", corpus.report);
        assert_eq!(corpus.trace.len(), 4);
    }

    #[test]
    fn malformed_csv_is_a_parse_error() {
        assert!(matches!(
            import_str("T1,T2,0\n").unwrap_err(),
            TraceError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            import_str("T1,T2,0,60\nT3,T4,oops,90\n").unwrap_err(),
            TraceError::Parse { line: 2, .. }
        ));
        // Empty or whitespace-bearing id fields are line-numbered parse
        // errors, not label-validation failures deep in the trace
        // constructor.
        for bad in [",T2,0,60\n", "sensor 1,T2,0,60\n", "T1,,0,60\n"] {
            match import_str(bad).unwrap_err() {
                TraceError::Parse { line: 1, reason } => {
                    assert!(reason.contains("device id"), "{bad:?}: {reason}")
                }
                other => panic!("{bad:?}: expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn only_the_first_data_line_is_header_eligible() {
        // Regression: every row of a wrong-format file used to be
        // skipped as a "header", silently importing an empty corpus.
        let err = import_str("10,T1,T2,x\n20,T3,T4,y\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err:?}");
        // A real header followed by real rows still works.
        let ok = import_str("a,b,start,end\nT1,T2,0,60\n").unwrap();
        assert_eq!(ok.report.lines_skipped, 1);
        assert_eq!(ok.report.records, 1);
    }
}
