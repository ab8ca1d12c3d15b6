//! The human-readable trace format, compatible with ONE-simulator
//! style connectivity traces.
//!
//! Canonical form (what [`to_text`] writes and [`from_text`] reads
//! back losslessly):
//!
//! ```text
//! # sos-trace v1
//! # nodes 10
//! # node_ids 1 3 4 7 9 12 21 33 40 41
//! # range_m 60
//! 30000 0 2 up 42.75
//! 48000 0 2 down 61.2
//! ```
//!
//! The optional `# node_ids` header preserves the original device
//! identifiers an imported corpus was remapped from (one
//! whitespace-free token per node index) so the dense-index ↔ real-id
//! mapping survives a round trip through the codec.
//!
//! One event per line: `<time_ms> <a> <b> <up|down> <distance_m>`,
//! ordered exactly as the timeline. Distances are printed with Rust's
//! shortest round-trip `f64` formatting, so text round-trips are exact
//! bit-for-bit.
//!
//! For importing published CRAWDAD-style traces, ONE connectivity
//! lines are also accepted: `<time_s> CONN <a> <b> <up|down>` (time in
//! seconds, fractional allowed, no distance — recorded as 0). Node
//! count is taken from the header when present, otherwise inferred as
//! `max index + 1`.
//!
//! Limits: a trace holds at most `u32::MAX` nodes and times below 2^63
//! ms (see [`record`](crate::record)). A node id, node count or time
//! beyond them parses as a number but is
//! [`TraceError::Unrepresentable`] (inside `InvalidAtLine` when an
//! event line carries it), never truncated. Each line is packed as it
//! is parsed; no `ContactEvent` list is built.
//! [`to_text`] writes into one buffer sized for the trace's longest
//! possible line, so it allocates once.

use crate::error::TraceError;
use crate::record::{ContactTrace, Packed};
use crate::scan::{split, Lines};
use sos_sim::world::{ContactEvent, ContactPhase};
use sos_sim::SimTime;
use std::fmt::Write as _;
use std::str::FromStr;

/// Largest millisecond count exactly representable as an `f64` integer
/// (2^53). Beyond this, `as u64` conversions silently saturate or lose
/// precision, so second→millisecond conversion rejects such times.
const MAX_EXACT_MS: f64 = 9_007_199_254_740_992.0;

/// Converts fractional seconds to milliseconds (rounding to the
/// nearest millisecond — the timeline's resolution), or `None` when
/// the millisecond value cannot be represented exactly as an `f64`
/// integer: negative, non-finite, or beyond 2^53, where the old
/// `as u64` cast silently saturated (a `1e300` timestamp must be a
/// parse error, not `u64::MAX`).
pub(crate) fn exact_millis_from_secs(secs: f64) -> Option<u64> {
    let ms = secs * 1000.0;
    if !(ms.is_finite() && (0.0..=MAX_EXACT_MS).contains(&ms)) {
        return None;
    }
    // sos-lint: allow(no-narrow-cast) reason="this IS the sanctioned guard: ms proven finite and within 0..=2^53 directly above"
    Some(ms.round() as u64)
}

/// Maps a timeline-validation failure back to the source line its
/// offending event came from. Event indices and line numbers diverge
/// whenever the file contains comments, blank lines, or CONN lines, so
/// reporting the raw index would point users at the wrong line; the
/// wrapped error keeps the index.
///
/// Every record line of a file that got this far parsed into exactly
/// one event, so event `i` sits on the `i`-th record line: the line is
/// found by scanning again, on the error path only, instead of by
/// keeping a line number per event on every path.
fn map_timeline_error(err: TraceError, text: &str) -> TraceError {
    let index = match &err {
        TraceError::NodeOutOfRange { index, .. }
        | TraceError::UnorderedPair { index }
        | TraceError::UnorderedEvents { index }
        | TraceError::PhaseViolation { index }
        | TraceError::BadDistance { index }
        | TraceError::Unrepresentable {
            index: Some(index), ..
        } => Some(*index),
        _ => None,
    };
    let mut lines = Lines::new(text);
    match index.and_then(|i| std::iter::from_fn(|| lines.next_record()).nth(i)) {
        Some((line, _)) => TraceError::InvalidAtLine {
            line,
            error: Box::new(err),
        },
        None => err,
    }
}

/// Appends `value` in decimal: the three integers of an event line do
/// not need `fmt`'s machinery.
fn push_decimal(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    // ASCII digits are UTF-8, so the fallback is never taken.
    out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
}

/// The longest `{:?}` of a finite, non-negative `f64`: 17 significant
/// digits, a point and a three-digit negative exponent
/// (`2.2250738585072014e-308`).
const MAX_DISTANCE_CHARS: usize = 23;

/// Serializes a trace to the canonical text format, in one allocation:
/// the buffer is sized for every line as long as the trace's last time,
/// its node count and the longest distance can print, so it never
/// grows.
pub fn to_text(trace: &ContactTrace) -> String {
    let _span = sos_obs::profile::span("trace/text_encode");
    let digits = |value: u64| value.max(1).ilog10() as usize + 1;
    let labels = trace.node_labels().unwrap_or_default();
    // The three fixed header lines, `# range_m` at its longest.
    let header = 96 + labels.iter().map(|label| label.len() + 1).sum::<usize>();
    // Two spaces, ` down ` and the newline around the three integers.
    let line = digits(trace.end_time().as_millis()) + 2 * digits(trace.node_count() as u64) + 9;
    let mut out = String::with_capacity(header + trace.len() * (line + MAX_DISTANCE_CHARS));
    out.push_str("# sos-trace v1\n");
    let _ = writeln!(out, "# nodes {}", trace.node_count());
    if trace.node_labels().is_some() {
        out.push_str("# node_ids ");
        for (i, label) in labels.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { " " });
            out.push_str(label);
        }
        out.push('\n');
    }
    if let Some(r) = trace.range_m() {
        let _ = writeln!(out, "# range_m {r:?}");
    }
    for ev in trace.events() {
        push_decimal(&mut out, ev.time.as_millis());
        out.push(' ');
        push_decimal(&mut out, ev.a as u64);
        out.push(' ');
        push_decimal(&mut out, ev.b as u64);
        out.push_str(match ev.phase {
            ContactPhase::Up => " up ",
            ContactPhase::Down => " down ",
        });
        let _ = writeln!(out, "{:?}", ev.distance_m);
    }
    out
}

/// Parses an `up`/`down` token (shared with the corpora adapters so
/// strict and sanitizing CONN parsing cannot drift apart).
pub(crate) fn parse_phase(token: &str, line: usize) -> Result<ContactPhase, TraceError> {
    if token.eq_ignore_ascii_case("up") {
        Ok(ContactPhase::Up)
    } else if token.eq_ignore_ascii_case("down") {
        Ok(ContactPhase::Down)
    } else {
        Err(TraceError::Parse {
            line,
            reason: format!("unknown phase {:?}", token.to_ascii_lowercase()),
        })
    }
}

/// Parses a fractional-seconds token into exact milliseconds, with the
/// saturation guard and error wording shared by the strict CONN parser
/// and every corpora adapter.
pub(crate) fn parse_secs_as_millis(token: &str, line: usize) -> Result<u64, TraceError> {
    let secs: f64 = token.parse().map_err(|_| TraceError::Parse {
        line,
        reason: format!("bad time {token:?}"),
    })?;
    exact_millis_from_secs(secs).ok_or_else(|| TraceError::Parse {
        line,
        reason: format!("time {token:?} has no exact millisecond value"),
    })
}

fn parse_num<T: FromStr>(token: &str, line: usize, what: &str) -> Result<T, TraceError> {
    token.parse().map_err(|_| TraceError::Parse {
        line,
        reason: format!("bad {what} {token:?}"),
    })
}

/// Parses the value of a `# <key> <value>` header line.
fn parse_value<T: FromStr>(token: Option<&str>, line: usize, what: &str) -> Result<T, TraceError> {
    let reason = format!("missing {what}");
    parse_num(token.ok_or(TraceError::Parse { line, reason })?, line, what)
}

/// Parses the canonical text format (and ONE-style `CONN` lines).
pub fn from_text(text: &str) -> Result<ContactTrace, TraceError> {
    let _span = sos_obs::profile::span("trace/text_decode");
    let mut nodes: Option<usize> = None;
    let mut range_m: Option<f64> = None;
    let mut labels: Option<Vec<String>> = None;
    let mut labels_line = 0usize;
    let mut events: Vec<Packed> = Vec::new();
    let mut max_node = 0usize;

    let mut lines = Lines::new(text);
    while let Some((line, content)) = lines.next_line() {
        if let Some(comment) = content.strip_prefix('#') {
            let mut it = comment.split_whitespace();
            match it.next() {
                Some("nodes") => nodes = Some(parse_value(it.next(), line, "node count")?),
                Some("node_ids") => {
                    (labels, labels_line) = (Some(it.map(str::to_string).collect()), line)
                }
                Some("range_m") => range_m = Some(parse_value(it.next(), line, "range")?),
                _ => {} // free-form comment
            }
            continue;
        }
        let (tokens, count) = split::<5>(content);
        let ev = if count == 5 && tokens[1].eq_ignore_ascii_case("CONN") {
            // ONE style: <time_s> CONN <a> <b> <up|down>
            let ms = parse_secs_as_millis(tokens[0], line)?;
            let a: usize = parse_num(tokens[2], line, "node")?;
            let b: usize = parse_num(tokens[3], line, "node")?;
            // Real noisy logs contain self-contacts; in this strict
            // parser that is a named error (the sanitizing corpora
            // importers drop and count them instead).
            if a == b {
                return Err(TraceError::Parse {
                    line,
                    reason: format!("self-contact: CONN {a} {b}"),
                });
            }
            // ONE traces order pairs arbitrarily; normalize to a < b.
            ContactEvent {
                time: SimTime::from_millis(ms),
                a: a.min(b),
                b: a.max(b),
                phase: parse_phase(tokens[4], line)?,
                distance_m: 0.0,
            }
        } else if count == 5 {
            // Canonical: <time_ms> <a> <b> <up|down> <distance_m>
            ContactEvent {
                time: SimTime::from_millis(parse_num(tokens[0], line, "time")?),
                a: parse_num(tokens[1], line, "node")?,
                b: parse_num(tokens[2], line, "node")?,
                phase: parse_phase(tokens[3], line)?,
                distance_m: parse_num(tokens[4], line, "distance")?,
            }
        } else {
            return Err(TraceError::Parse {
                line,
                reason: format!("expected 5 fields, got {count}"),
            });
        };
        max_node = max_node.max(ev.b).max(ev.a);
        events.push(Packed::pack(events.len(), ev).map_err(|e| map_timeline_error(e, text))?);
    }

    let nodes = nodes
        .or(labels.as_ref().map(Vec::len))
        .unwrap_or(if events.is_empty() { 0 } else { max_node + 1 });
    ContactTrace::from_packed(nodes, range_m, labels, events).map_err(|err| match err {
        // Label failures come from the `# node_ids` header line.
        TraceError::InvalidLabels { .. } => TraceError::InvalidAtLine {
            line: labels_line,
            error: Box::new(err),
        },
        other => map_timeline_error(other, text),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ContactTrace {
        let events = vec![
            ContactEvent {
                time: SimTime::ZERO,
                a: 0,
                b: 1,
                phase: ContactPhase::Up,
                distance_m: 12.5,
            },
            ContactEvent {
                time: SimTime::from_secs(90),
                a: 0,
                b: 1,
                phase: ContactPhase::Down,
                distance_m: 60.000001,
            },
        ];
        ContactTrace::new(4, Some(60.0), events).unwrap()
    }

    #[test]
    fn round_trip() {
        let trace = sample();
        let text = to_text(&trace);
        assert_eq!(from_text(&text).unwrap(), trace);
    }

    #[test]
    fn one_style_conn_lines_import() {
        let text = "0.0 CONN 3 7 up\n12.5 CONN 3 7 down\n";
        let trace = from_text(text).unwrap();
        assert_eq!(trace.node_count(), 8); // inferred
        assert_eq!(trace.range_m(), None);
        assert_eq!(
            trace.events().nth(1).unwrap().time,
            SimTime::from_millis(12_500)
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = from_text("0 0 1 up 1.0\nnot a line\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err:?}");
        let err = from_text("0 0 1 sideways 1.0\n").unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn malformed_timeline_is_rejected_not_panicking() {
        // Valid lines, invalid timeline (down without up). The error
        // names the source line and keeps the event index.
        let err = from_text("# nodes 2\n0 0 1 down 1.0\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::InvalidAtLine {
                line: 2,
                error: Box::new(TraceError::PhaseViolation { index: 0 })
            }
        );
    }

    #[test]
    fn timeline_errors_report_source_lines_not_event_indices() {
        // Comments, blank lines, and a CONN line push line numbers away
        // from event indices: the phase violation below is event 2 but
        // sits on line 8.
        let text = "# sos-trace v1\n\
                    # nodes 3\n\
                    # a free-form comment\n\
                    \n\
                    0 0 1 up 1.0\n\
                    5.0 CONN 1 2 up\n\
                    # another comment\n\
                    6000 0 1 up 1.0\n";
        let err = from_text(text).unwrap_err();
        assert_eq!(
            err,
            TraceError::InvalidAtLine {
                line: 8,
                error: Box::new(TraceError::PhaseViolation { index: 2 })
            }
        );
        assert!(err.to_string().contains("line 8"), "{err}");
        // Backwards time maps the same way.
        let err =
            from_text("# nodes 2\n# pad\n9000 0 1 up 1.0\n\n3000 0 1 down 1.0\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::InvalidAtLine {
                line: 5,
                error: Box::new(TraceError::UnorderedEvents { index: 1 })
            }
        );
    }

    #[test]
    fn huge_conn_times_error_instead_of_saturating() {
        // (1e300 * 1000).round() as u64 used to silently saturate to
        // u64::MAX; now it is a parse error on the right line.
        for bad in ["1e300", "9.1e12", "inf", "nan", "-4"] {
            let text = format!("{bad} CONN 0 1 up\n");
            let err = from_text(&text).unwrap_err();
            assert!(
                matches!(err, TraceError::Parse { line: 1, .. }),
                "{bad}: {err:?}"
            );
        }
        // Huge-but-exact millisecond values still parse.
        let ok = from_text("9000000000000 CONN 0 1 up\n").unwrap();
        assert_eq!(
            ok.events().next().unwrap().time.as_millis(),
            9_000_000_000_000_000
        );
    }

    #[test]
    fn conn_self_contact_is_a_named_parse_error() {
        // a == b used to surface as an unhelpful UnorderedPair; strict
        // parsing now names the self-contact and its line.
        let err = from_text("0.0 CONN 5 5 up\n").unwrap_err();
        match &err {
            TraceError::Parse { line, reason } => {
                assert_eq!(*line, 1);
                assert!(reason.contains("self-contact"), "{reason}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn node_ids_header_round_trips_and_sets_node_count() {
        let trace = ContactTrace::new_labeled(
            3,
            Some(10.0),
            Some(vec!["21".into(), "33".into(), "3c:4a:92".into()]),
            vec![ContactEvent {
                time: SimTime::ZERO,
                a: 0,
                b: 2,
                phase: ContactPhase::Up,
                distance_m: 1.0,
            }],
        )
        .unwrap();
        let text = to_text(&trace);
        assert!(text.contains("# node_ids 21 33 3c:4a:92"), "{text}");
        assert_eq!(from_text(&text).unwrap(), trace);
        // Without a `# nodes` header the id list fixes the population.
        let parsed = from_text("# node_ids x y z\n").unwrap();
        assert_eq!(parsed.node_count(), 3);
        assert_eq!(parsed.node_label(2), Some("z"));
        // Conflicting arity is an error, not silent truncation — and
        // it names the `# node_ids` header's line.
        match from_text("# nodes 2\n# node_ids x y z\n").unwrap_err() {
            TraceError::InvalidAtLine { line, error } => {
                assert_eq!(line, 2);
                assert!(matches!(*error, TraceError::InvalidLabels { .. }));
            }
            other => panic!("expected line-mapped InvalidLabels, got {other:?}"),
        }
    }

    #[test]
    fn a_leading_byte_order_mark_does_not_hide_the_header() {
        // U+FEFF ahead of `# sos-trace v1` used to make line 1 a
        // non-comment with three fields.
        let trace = sample();
        let marked = format!("\u{feff}{}", to_text(&trace));
        assert_eq!(from_text(&marked).unwrap(), trace);
        // Ahead of a header that matters, and ahead of an event line.
        let parsed = from_text("\u{feff}# nodes 50\n0 0 1 up 1.0\n").unwrap();
        assert_eq!(parsed.node_count(), 50);
        let parsed = from_text("\u{feff}0 0 1 up 1.0\n").unwrap();
        assert_eq!(parsed.len(), 1);
        // Line numbers are unchanged by it.
        let err = from_text("\u{feff}# nodes 2\n0 0 1 down 1.0\n").unwrap_err();
        assert!(
            matches!(err, TraceError::InvalidAtLine { line: 2, .. }),
            "{err:?}"
        );
        // A second mark, or one further down, is still a bad token.
        for bad in [
            "\u{feff}\u{feff}0 0 1 up 1.0\n",
            "0 0 1 up 1.0\n\u{feff}5 0 1 down 1.0\n",
        ] {
            let err = from_text(bad).unwrap_err();
            assert!(matches!(err, TraceError::Parse { .. }), "{bad:?}: {err:?}");
        }
    }

    #[test]
    fn push_decimal_writes_what_display_writes() {
        for value in [
            0u64,
            7,
            10,
            99,
            100,
            12_345,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = String::from("x");
            push_decimal(&mut out, value);
            assert_eq!(out, format!("x{value}"));
        }
    }

    #[test]
    fn values_beyond_the_packed_limits_are_named_errors() {
        let limit = |index, what, value| TraceError::Unrepresentable { index, what, value };
        let at_line = |line, error| TraceError::InvalidAtLine {
            line,
            error: Box::new(error),
        };
        assert_eq!(
            from_text("# nodes 4294967296\n").unwrap_err(),
            limit(None, "node count", 1 << 32)
        );
        // An id of u32::MAX makes an inferred count of 2^32.
        assert_eq!(
            from_text("0 0 4294967295 up 1.0\n").unwrap_err(),
            limit(None, "node count", 1 << 32)
        );
        assert_eq!(
            from_text("0 0 4294967296 up 1.0\n").unwrap_err(),
            at_line(1, limit(Some(0), "node", 1 << 32))
        );
        let text = "# nodes 2\n0 0 1 up 1.0\n9223372036854775808 0 1 down 1.0\n";
        assert_eq!(
            from_text(text).unwrap_err(),
            at_line(3, limit(Some(1), "time", 1 << 63))
        );
        // The largest time that fits and a negative zero round-trip.
        let edge = from_text("9223372036854775807 0 1 up -0.0\n").unwrap();
        assert_eq!(from_text(&to_text(&edge)).unwrap(), edge);
    }

    #[test]
    fn the_longest_distances_fit_the_buffer_bound() {
        for distance in [
            2.2250738585072014e-308,
            f64::MIN_POSITIVE,
            5e-324,
            0.00012345678901234567,
            9999999999999998.0,
            f64::MAX,
        ] {
            let printed = format!("{distance:?}");
            assert!(printed.len() <= MAX_DISTANCE_CHARS, "{printed}");
        }
        assert_eq!(
            format!("{:?}", 2.2250738585072014e-308).len(),
            MAX_DISTANCE_CHARS
        );
    }

    proptest::proptest! {
        /// No finite, non-negative distance prints longer than the bound
        /// `to_text` sizes its buffer by.
        #[test]
        fn no_distance_prints_longer_than_the_bound(bits in proptest::prelude::any::<u64>()) {
            let distance = f64::from_bits(bits).abs();
            if distance.is_finite() {
                proptest::prop_assert!(format!("{distance:?}").len() <= MAX_DISTANCE_CHARS);
            }
        }
    }

    #[test]
    fn header_node_count_wins_over_inference() {
        let trace = from_text("# nodes 50\n0 0 1 up 1.0\n").unwrap();
        assert_eq!(trace.node_count(), 50);
    }
}
