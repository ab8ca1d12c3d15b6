//! Replay throughput: producing an encounter timeline from a recorded
//! trace versus computing it live from geometry.
//!
//! The acceptance gate for the sos-trace subsystem: replaying a
//! recorded tape (`ContactTrace`'s `encounter_events`) must emit
//! events at ≥ 5x the rate of the live naive scan (`World`'s) on the
//! same workload — the floor is deliberately conservative; replay
//! skips geometry entirely and measures orders of magnitude faster. The gate is judged after
//! the last measurement (a run that violates it fails loudly) and every measurement is written to
//! `BENCH_trace.json` at the workspace root. Set `SOS_BENCH_SMOKE=1`
//! (as CI does) for a few-iteration smoke run.
//!
//! The researcher's import path is measured beside it: the tape
//! rendered as a CRAWDAD `CONN` log through `import_bytes`, and the
//! analytics pass. One ratio of it is gated, in smoke runs too —
//! `import/over_text_decode`, sanitizing import ns per line over
//! strict `from_text` ns per event on the same tape, ≤ 2.5: what
//! repairing a log costs over merely parsing one (2.8–3.6 before ids
//! were interned at parse time, 1.4–1.65 since). Both sides are
//! single-thread timings taken in one process, so the ratio holds on a
//! busy one-core runner. `codec/decode_over_encode` (binary) is
//! recorded, not gated: on this small tape encode is 5–7 ns per event,
//! so the ratio (8, down from 19–20 while the validator walked a tree
//! per event) mostly reports how cheap writing is.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use sos_bench::emit::{Gate, Suite};
use sos_sim::mobility::random_waypoint::RandomWaypoint;
use sos_sim::mobility::trace::Trajectory;
use sos_sim::world::ContactPhase;
use sos_sim::{EncounterSource, SimDuration, SimTime, World};
use sos_trace::corpora::{import_bytes, CorpusFormat};
use sos_trace::{codec_binary, codec_text, ContactTrace, TraceAnalytics};
use std::fmt::Write as _;

const NODES: usize = 120;
const HOURS: u64 = 6;

/// The shared recorder behind every measurement and the JSON write.
static SUITE: Suite = Suite::new("trace");

/// Times `f` adaptively, prints, and records the mean nanoseconds.
fn measure<O, F: FnMut() -> O>(name: &str, f: F) -> f64 {
    SUITE.measure(name, f)
}

fn record(name: &str, value: f64) {
    SUITE.record(name, value);
}

/// A pedestrian random-waypoint workload big enough that contact
/// detection dominates.
fn workload() -> World {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let model = RandomWaypoint {
        bounds: sos_sim::geo::Bounds::new(2_500.0, 2_500.0),
        min_speed: 0.8,
        max_speed: 2.0,
        min_pause: SimDuration::ZERO,
        max_pause: SimDuration::from_secs(300),
    };
    let trajectories: Vec<Trajectory> = (0..NODES)
        .map(|_| model.generate(&mut rng, SimDuration::from_hours(HOURS)))
        .collect();
    World::new(trajectories, 60.0, SimDuration::from_secs(30))
}

/// The tape as the `CONN` log a published corpus of it would be:
/// `<time_s> CONN <a> <b> <up|down>`, 1-based device ids as the iMote
/// corpora have them.
fn render_conn(tape: &ContactTrace) -> String {
    let mut out = String::with_capacity(tape.len() * 28);
    for ev in tape.events() {
        let ms = ev.time.as_millis();
        let phase = match ev.phase {
            ContactPhase::Up => "up",
            ContactPhase::Down => "down",
        };
        let _ = writeln!(
            out,
            "{}.{:03} CONN {} {} {phase}",
            ms / 1000,
            ms % 1000,
            ev.a + 1,
            ev.b + 1
        );
    }
    out
}

fn bench_trace_replay(_c: &mut Criterion) {
    let world = workload();
    let end = SimTime::from_hours(HOURS);
    let tape = ContactTrace::record(&world, SimTime::ZERO, end).expect("valid recording");
    let events = tape.len().max(1) as f64;
    println!(
        "workload: {NODES} nodes, {HOURS} h, {} events on the tape\n",
        tape.len()
    );

    // --- Timeline production: live geometry vs tape replay.
    let live_ns = measure("timeline/live_world_scan", || {
        world.encounter_events(SimTime::ZERO, end).len()
    });
    let replay_ns = measure("timeline/trace_replay", || {
        tape.encounter_events(SimTime::ZERO, end).len()
    });
    let live_rate = events / (live_ns / 1e9);
    let replay_rate = events / (replay_ns / 1e9);
    record("timeline/live_events_per_sec", live_rate);
    record("timeline/replay_events_per_sec", replay_rate);
    let speedup = replay_rate / live_rate;
    SUITE.gate("timeline/replay_speedup", speedup, Gate::AtLeast, 5.0);
    println!(
        "replay throughput: {:.2e} events/s vs live {:.2e} events/s ({speedup:.0}x; gate >= 5x)\n",
        replay_rate, live_rate
    );

    // --- Codec hot paths.
    let binary = codec_binary::to_binary(&tape);
    let text = codec_text::to_text(&tape);
    record("codec/binary_bytes_per_event", binary.len() as f64 / events);
    record("codec/text_bytes_per_event", text.len() as f64 / events);
    let encode_ns = measure("codec/binary_encode", || {
        codec_binary::to_binary(&tape).len()
    });
    let decode_ns = measure("codec/binary_decode", || {
        codec_binary::from_binary(std::hint::black_box(&binary)).unwrap()
    });
    record("codec/decode_over_encode", decode_ns / encode_ns);
    measure("codec/text_encode", || codec_text::to_text(&tape).len());
    let text_decode_ns = measure("codec/text_decode", || {
        codec_text::from_text(std::hint::black_box(&text)).unwrap()
    });

    // --- The import path: sanitizing CONN import and analytics.
    let conn = render_conn(&tape);
    let imported = import_bytes(CorpusFormat::Crawdad, conn.as_bytes()).expect("imports");
    assert!(
        imported.report.accounts_for_everything() && imported.report.records == tape.len(),
        "the rendered log must import whole: {:?}",
        imported.report
    );
    let import_ns = measure("import/conn", || {
        import_bytes(CorpusFormat::Crawdad, std::hint::black_box(conn.as_bytes())).unwrap()
    });
    record("import/conn_ns_per_line", import_ns / events);
    let import_ratio = import_ns / text_decode_ns;
    SUITE.gate("import/over_text_decode", import_ratio, Gate::AtMost, 2.5);
    println!(
        "import: {:.0} ns/line, {import_ratio:.2}x strict text decode (gate <= 2.5)\n",
        import_ns / events
    );
    measure("analytics/compute", || {
        TraceAnalytics::compute(std::hint::black_box(&tape)).contacts
    });

    // --- Byte-level acceptance checks (in smoke runs too: CI executes
    // this with SOS_BENCH_SMOKE=1, so a rotted replay path fails CI).
    // The two timing gates are judged with the rest at the end.
    assert!(
        tape.encounter_events(SimTime::ZERO, end) == world.encounter_events(SimTime::ZERO, end),
        "replayed timeline must equal the recorded one"
    );
    assert!(
        binary.len() < text.len(),
        "binary codec must be more compact than text"
    );
}

/// Writes every recorded measurement to `BENCH_trace.json` at the
/// workspace root via the shared emitter (skipped in smoke mode), then
/// judges both gates: one that fails leaves the other's verdict printed.
fn emit_json(_c: &mut Criterion) {
    SUITE.finish("ns_mean (rates/ratios as named)");
}

criterion_group!(benches, bench_trace_replay, emit_json);
criterion_main!(benches);
