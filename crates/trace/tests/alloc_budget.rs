//! Exact heap counts for the trace pipeline, over synthetic traces of a
//! 60-node population for two and four weeks:
//!
//! - heap bytes a `ContactTrace` keeps per event, whichever constructor
//!   built it: `generate_social_trace`, `from_binary`, `from_text` and
//!   the CRAWDAD import;
//! - the CRAWDAD import's peak live heap: the raw transition buffer it
//!   parses into plus a small slack, so its last step packs the
//!   transitions into the trace's events in that buffer; likewise
//!   `ContactTrace::new` packs the `Vec<ContactEvent>` it is given in
//!   place;
//! - allocations per `to_text` call: one, the returned string.
//!
//! The bytes and calls are counted by the global allocator of
//! `crates/core/tests/support/counting.rs`, which hands every call to
//! the system allocator unchanged. The counts are the same in debug and
//! release. The file holds one test, so nothing else runs in the
//! process while it counts.

use sos_sim::{ContactEvent, ContactPhase, SimTime};
use sos_trace::corpora::{import_bytes, CorpusFormat};
use sos_trace::{codec_binary, codec_text, generate_social_trace, ContactTrace, SocialTraceConfig};
use std::fmt::Write as _;
use std::sync::atomic::Ordering::Relaxed;

#[path = "../../core/tests/support/counting.rs"]
mod counting;
use counting::{ALLOCATIONS, LIVE, PEAK};

/// The two trace lengths, in days: the per-event bytes are the
/// difference between them, so what every trace keeps once (the node
/// labels of an import) cancels.
const DAYS: [u64; 2] = [14, 28];

/// Bytes of one raw transition of the import (`sanitize::Transition`:
/// time, two interned ids, phase, distance and source line).
const TRANSITION_BYTES: usize = 40;

/// What an import or a conversion may hold beside its one event buffer:
/// the id table and the pair tables of a 60-node population.
const SLACK_BYTES: usize = 512 << 10;

fn social(days: u64) -> ContactTrace {
    generate_social_trace(&SocialTraceConfig {
        nodes: 60,
        days,
        communities: 12,
        seed: 20170605,
        ..SocialTraceConfig::default()
    })
    .expect("valid synthetic trace")
}

/// The trace as a published CONN log of it would be: 1-based device ids.
fn conn(trace: &ContactTrace) -> String {
    let mut out = String::new();
    for ev in trace.events() {
        let (ms, up) = (ev.time.as_millis(), ev.phase == ContactPhase::Up);
        let phase = if up { "up" } else { "down" };
        let (a, b) = (ev.a + 1, ev.b + 1);
        let _ = writeln!(out, "{}.{:03} CONN {a} {b} {phase}", ms / 1000, ms % 1000);
    }
    out
}

/// Heap bytes kept per event by the traces `build` returns for the two
/// lengths (`build(0)`, `build(1)`), once everything else it allocated
/// is gone.
fn bytes_per_event(build: impl Fn(usize) -> ContactTrace) -> f64 {
    let [(short, short_bytes), (long, long_bytes)] = [0, 1].map(|length| {
        let before = LIVE.load(Relaxed);
        let trace = build(length);
        let kept = LIVE.load(Relaxed) - before;
        (trace, kept)
    });
    (long_bytes - short_bytes) as f64 / (long.len() - short.len()) as f64
}

/// The most bytes `run` held live at once beyond what was live before.
fn peak_extra<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = run();
    (out, PEAK.load(Relaxed) - before)
}

#[test]
fn a_trace_keeps_24_bytes_per_event_and_its_constructors_pack_in_place() {
    let traces = DAYS.map(social);
    let binary = traces.each_ref().map(codec_binary::to_binary);
    let text = traces.each_ref().map(codec_text::to_text);
    let logs = traces.each_ref().map(conn);
    let import = |log: &String| import_bytes(CorpusFormat::Crawdad, log.as_bytes());

    // 24: a time with the phase in its top bit, a distance and two
    // `u32` ids. 40 when a trace held `ContactEvent`s (two `usize` ids
    // and a padded phase), and up to twice that where it kept the
    // spare capacity of a `Vec` grown by pushes.
    for (constructor, bytes) in [
        (
            "generate_social_trace",
            bytes_per_event(|i| social(DAYS[i])),
        ),
        (
            "from_binary",
            bytes_per_event(|i| codec_binary::from_binary(&binary[i]).expect("decodes")),
        ),
        (
            "from_text",
            bytes_per_event(|i| codec_text::from_text(&text[i]).expect("parses")),
        ),
        (
            "CRAWDAD import",
            bytes_per_event(|i| import(&logs[i]).expect("imports").trace),
        ),
    ] {
        assert!(bytes <= 24.0, "{constructor}: {bytes:.2} B kept per event");
    }

    // The import parses into one `Vec` of raw transitions, grown by
    // doubling, and packs them in it: a second buffer for the packed
    // events would add 24 B per event to the peak.
    let long = &traces[1];
    let (corpus, peak) = peak_extra(|| import(&logs[1]).expect("imports"));
    assert_eq!(corpus.report.records, long.len());
    let buffer = long.len().next_power_of_two() * TRANSITION_BYTES;
    assert!(
        peak <= buffer + SLACK_BYTES,
        "import peaked at {peak} B, its transition buffer is {buffer} B"
    );

    // `ContactTrace::new` packs the events it is given where they lie.
    let events: Vec<ContactEvent> = long.events().collect();
    let (rebuilt, peak) =
        peak_extra(|| ContactTrace::new(long.node_count(), long.range_m(), events));
    assert_eq!(rebuilt.expect("valid trace"), *long);
    assert!(peak <= SLACK_BYTES, "new peaked {peak} B above its input");

    // The text buffer is sized once for the longest line the trace can
    // print: the labeled import writes a `# node_ids` header too, and
    // the widest lines carry seven-digit ids, nineteen-digit times and
    // 23-character distances.
    let widest = ContactTrace::new(
        1 << 20,
        Some(60.0),
        (0..1_000)
            .map(|i| ContactEvent {
                time: SimTime::from_millis((1 << 62) + i),
                a: i as usize,
                b: (1 << 20) - 1,
                phase: ContactPhase::Up,
                distance_m: 2.2250738585072014e-308,
            })
            .collect(),
    )
    .expect("valid trace");
    for trace in [long, &corpus.trace, &widest] {
        let before = ALLOCATIONS.load(Relaxed);
        let text = codec_text::to_text(trace);
        let calls = ALLOCATIONS.load(Relaxed) - before;
        assert_eq!(
            calls,
            1,
            "to_text of {} events: {calls} allocations",
            trace.len()
        );
        assert!(!text.is_empty());
    }
}
