//! MIT Reality-Mining-style importer: periodic Bluetooth scan
//! sightings, with scan-interval → contact-interval inference.
//!
//! Reality Mining phones scanned for nearby Bluetooth devices every
//! ~300 s and logged *sightings*, not transitions:
//!
//! ```text
//! <time_s> <device_a> <device_b>
//! ```
//!
//! ("`a` saw `b` at `t`"; device ids are MAC-derived hex or sparse
//! numbers.) A contact must be inferred: consecutive sightings of the
//! same pair closer than `merge_slack × scan_interval` belong to one
//! contact, which spans from the first sighting to one scan interval
//! past the last (the devices remained visible for about one period
//! after the final scan that caught them). The inferred transitions
//! then run through the [`sanitize`](fn@crate::corpora::sanitize)
//! pipeline like every other corpus.

use crate::codec_text::{exact_millis_from_secs, parse_secs_as_millis};
use crate::corpora::sanitize::{IdTable, Transition};
use crate::corpora::{ImportReport, ImportedCorpus};
use crate::error::TraceError;
use crate::scan::{split, Lines};
use sos_sim::world::ContactPhase;

/// Scan-interval inference parameters.
#[derive(Clone, Debug)]
pub struct RealityConfig {
    /// The deployment's Bluetooth scan period, seconds (Reality
    /// Mining used ~300 s).
    pub scan_interval_s: f64,
    /// Sightings of a pair within `merge_slack × scan_interval_s` of
    /// each other are merged into one contact; larger gaps split it.
    /// Must be finite and ≥ 1 (rejected otherwise — below 1 the
    /// inference would split every scan run at the period itself).
    pub merge_slack: f64,
}

impl Default for RealityConfig {
    fn default() -> Self {
        RealityConfig {
            scan_interval_s: 300.0,
            merge_slack: 1.5,
        }
    }
}

/// Imports a Reality-Mining-style Bluetooth sighting log, inferring
/// contact intervals from periodic scans and sanitizing the result.
pub fn import_str(text: &str, config: &RealityConfig) -> Result<ImportedCorpus, TraceError> {
    if !(config.scan_interval_s.is_finite() && config.scan_interval_s > 0.0) {
        return Err(TraceError::Parse {
            line: 0,
            reason: format!("bad scan interval {}", config.scan_interval_s),
        });
    }
    // A slack below 1 would split every scan run at the scan period
    // itself — incoherent inference. Reject it like a bad interval
    // rather than silently rewriting the caller's parameter.
    if !(config.merge_slack.is_finite() && config.merge_slack >= 1.0) {
        return Err(TraceError::Parse {
            line: 0,
            reason: format!("bad merge slack {} (must be >= 1)", config.merge_slack),
        });
    }
    let interval_ms =
        exact_millis_from_secs(config.scan_interval_s).ok_or_else(|| TraceError::Parse {
            line: 0,
            reason: format!("scan interval {} not representable", config.scan_interval_s),
        })?;
    // Sub-millisecond intervals round to 0 and would make every
    // inferred contact zero-length (up and down at the same instant),
    // which cannot survive downstream ordering — reject them here.
    if interval_ms == 0 {
        return Err(TraceError::Parse {
            line: 0,
            reason: format!(
                "scan interval {} s rounds to zero milliseconds",
                config.scan_interval_s
            ),
        });
    }
    let gap = (interval_ms as f64) * config.merge_slack;
    // A NaN or negative merge_slack must be a config error: the old
    // unguarded cast saturated NaN to 0 and huge products to u64::MAX,
    // silently merging every sighting into one contact.
    if !gap.is_finite() || gap < 0.0 {
        return Err(TraceError::Parse {
            line: 0,
            reason: format!(
                "merge_slack {} yields an invalid merge gap",
                config.merge_slack
            ),
        });
    }
    // sos-lint: allow(no-narrow-cast) reason="guarded: gap proven finite and non-negative above; saturation needs > 2^64 ms (585 million years)"
    let merge_gap_ms = gap.round() as u64;

    // One `(a, b, time_ms, line)` per sighting, in file order.
    let mut ids = IdTable::default();
    let mut sightings: Vec<(u32, u32, u64, usize)> = Vec::new();
    let mut records_out_of_order = 0usize;
    let mut running_max = 0u64;
    let mut lines = Lines::new(text);
    while let Some((line, content)) = lines.next_record() {
        let ([time, a, b], count) = split::<3>(content);
        if count != 3 {
            return Err(TraceError::Parse {
                line,
                reason: format!("expected `<time_s> <a> <b>`, got {content:?}"),
            });
        }
        // Shared with the strict CONN parser: a 1e300 scan timestamp
        // must error, not saturate to u64::MAX.
        let time_ms = parse_secs_as_millis(time, line)?;
        sightings.push((ids.device(a, line)?, ids.device(b, line)?, time_ms, line));
        if time_ms < running_max {
            records_out_of_order += 1;
        } else {
            running_max = time_ms;
        }
    }
    let (lines_total, lines_skipped) = (lines.lines_read(), lines.lines_skipped());
    let records = sightings.len();

    // Group the sightings per (unordered) pair, lower label first, in
    // original-id order, each pair's by time (equal times keep file
    // order): one stable sort. Lexical ranks stand in for the labels,
    // so no string is compared or cloned per sighting.
    let label = ids.lexical_ranks();
    for (a, b, ..) in &mut sightings {
        if label[*a as usize] > label[*b as usize] {
            std::mem::swap(a, b);
        }
    }
    sightings.sort_by_key(|&(a, b, t, _)| (label[a as usize], label[b as usize], t));

    // Inference: merge sighting runs into [first, last + interval].
    let mut raw: Vec<Transition> = Vec::new();
    for pair in sightings.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
        let (a, b, first, first_line) = pair[0];
        let mut run_start = (first, first_line);
        let mut run_last = run_start;
        let mut runs: Vec<((u64, usize), (u64, usize))> = Vec::new();
        for &(_, _, t, line) in &pair[1..] {
            if t.saturating_sub(run_last.0) <= merge_gap_ms {
                run_last = (t, line);
            } else {
                runs.push((run_start, run_last));
                run_start = (t, line);
                run_last = (t, line);
            }
        }
        runs.push((run_start, run_last));
        for ((start, start_line), (last, last_line)) in runs {
            raw.push(Transition {
                time_ms: start,
                a,
                b,
                phase: ContactPhase::Up,
                distance_m: 0.0,
                line: start_line,
            });
            raw.push(Transition {
                time_ms: last.saturating_add(interval_ms),
                a,
                b,
                phase: ContactPhase::Down,
                distance_m: 0.0,
                line: last_line,
            });
        }
    }
    // Per-pair inference emits pair-grouped events; order them by time
    // (ties by pair) before the sanitizer so cross-pair interleaving is
    // not misreported as out-of-order noise.
    raw.sort_by_key(|ev| {
        (
            ev.time_ms,
            label[ev.a as usize],
            label[ev.b as usize],
            ev.phase == ContactPhase::Up,
        )
    });

    let report = ImportReport {
        format: "reality-scans",
        lines_total,
        lines_skipped,
        records,
        records_out_of_order,
        ..ImportReport::default()
    };
    report.finish(&ids, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_sim::SimTime;

    #[test]
    fn scan_runs_become_contact_intervals() {
        let cfg = RealityConfig {
            scan_interval_s: 300.0,
            merge_slack: 1.5,
        };
        // Pair seen at 0, 300, 600 (one contact), then again at 3600
        // (a second contact after a >450 s gap).
        let text = "0 3c4a 9f02\n300 3c4a 9f02\n600 9f02 3c4a\n3600 3c4a 9f02\n";
        let corpus = import_str(text, &cfg).unwrap();
        let trace = &corpus.trace;
        assert_eq!(trace.node_count(), 2);
        assert_eq!(trace.len(), 4); // two up/down pairs
        let intervals = trace.intervals(trace.end_time());
        assert_eq!(intervals.len(), 2);
        // First contact: [0, 600 + 300).
        assert_eq!(intervals[0].start, SimTime::ZERO);
        assert_eq!(intervals[0].end, SimTime::from_secs(900));
        // Second: [3600, 3600 + 300).
        assert_eq!(intervals[1].start, SimTime::from_secs(3600));
        assert_eq!(intervals[1].end, SimTime::from_secs(3900));
        assert!(corpus.report.sanitize.is_clean());
        assert!(
            corpus.report.accounts_for_everything(),
            "{:?}",
            corpus.report
        );
        assert_eq!(corpus.report.records, 4);
        assert_eq!(corpus.report.raw_events, 4);
    }

    #[test]
    fn self_sightings_and_disorder_are_counted() {
        let cfg = RealityConfig::default();
        let text = "600 aa bb\n0 aa aa\n300 bb aa\n";
        let corpus = import_str(text, &cfg).unwrap();
        // The self pair inferred one interval -> 2 raw events dropped.
        assert_eq!(corpus.report.sanitize.self_contacts_dropped, 2);
        // Line 2 and 3 arrived with earlier times than line 1.
        assert_eq!(corpus.report.records_out_of_order, 2);
        assert!(
            corpus.report.accounts_for_everything(),
            "{:?}",
            corpus.report
        );
        assert_eq!(corpus.trace.node_count(), 2);
        assert_eq!(corpus.trace.len(), 2);
    }

    #[test]
    fn huge_scan_times_error_like_the_strict_parser() {
        let err = import_str("1e300 aa bb\n", &RealityConfig::default()).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn bad_inference_parameters_are_rejected_not_rewritten() {
        // merge_slack below 1 (or NaN) used to be silently clamped to
        // 1.0; it is now an error, consistent with scan_interval_s.
        for slack in [0.5, 0.0, -2.0, f64::NAN] {
            let cfg = RealityConfig {
                merge_slack: slack,
                ..RealityConfig::default()
            };
            let err = import_str("0 aa bb\n", &cfg).unwrap_err();
            assert!(matches!(err, TraceError::Parse { .. }), "{slack}: {err:?}");
        }
        for interval in [0.0, -300.0, f64::INFINITY, 0.0004] {
            let cfg = RealityConfig {
                scan_interval_s: interval,
                ..RealityConfig::default()
            };
            assert!(import_str("0 aa bb\n", &cfg).is_err(), "{interval}");
        }
    }
}
