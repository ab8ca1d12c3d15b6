//! Record → serialize → replay: the *in vivo* evaluation loop.
//!
//! 1. Runs a reduced Gainesville field study live and records its
//!    encounter timeline with `sos-trace` (the "tape").
//! 2. Round-trips the tape through both codecs — the ONE-compatible
//!    text format and the delta-encoded binary format — writing the
//!    files under `target/`.
//! 3. Replays the reloaded tape through the identical driver and
//!    asserts the delivered set, stats, and every run metric (but the
//!    Fig. 4b map, which needs positions a tape does not have) are
//!    **byte-identical** to the live run.
//! 4. Characterizes the tape (inter-contact CCDF, durations, aggregate
//!    contact graph) and compares it against a synthetic
//!    community-structured social trace of the same population size.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use sos::core::routing::SchemeKind;
use sos::experiments::driver::run_study;
use sos::experiments::replay::{delivered_set, record_field_study_trace};
use sos::experiments::report::delay_quantiles_line;
use sos::experiments::scenario::{field_study, run_field_study, small_test_config};
use sos::trace::{
    codec_binary, codec_text, generate_social_trace, SocialTraceConfig, TraceAnalytics,
};

fn main() {
    let mut cfg = small_test_config(17, SchemeKind::InterestBased);
    cfg.days = 1;
    cfg.total_posts = 30;

    // --- 1. Record.
    println!(
        "recording a {}-day field study (seed {})...",
        cfg.days, cfg.seed
    );
    let mut live = run_field_study(&cfg);
    let tape = record_field_study_trace(&cfg);
    println!(
        "tape: {} events over {} nodes ({} contacts)\n",
        tape.len(),
        tape.node_count(),
        tape.len() / 2
    );

    // --- 2. Serialize both ways and reload.
    let text = codec_text::to_text(&tape);
    let binary = codec_binary::to_binary(&tape);
    let out_dir = std::path::Path::new("target");
    let text_path = out_dir.join("field_study.sostrace");
    let bin_path = out_dir.join("field_study.sostrace.bin");
    std::fs::write(&text_path, &text).expect("write text trace");
    std::fs::write(&bin_path, &binary).expect("write binary trace");
    println!(
        "codecs: text {} bytes -> {}, binary {} bytes -> {} ({:.1}x smaller)",
        text.len(),
        text_path.display(),
        binary.len(),
        bin_path.display(),
        text.len() as f64 / binary.len() as f64
    );
    let reloaded = codec_binary::from_binary(&std::fs::read(&bin_path).expect("read binary trace"))
        .expect("decode binary trace");
    assert_eq!(reloaded, tape, "binary round trip must be exact");
    assert_eq!(
        codec_text::from_text(&std::fs::read_to_string(&text_path).expect("read text trace"))
            .expect("parse text trace"),
        tape,
        "text round trip must be exact"
    );

    // --- 3. Replay and verify determinism.
    let replayed = run_study(field_study(&cfg, reloaded), None);
    let live_set = delivered_set(&live);
    let replay_set = delivered_set(&replayed);
    assert_eq!(
        live_set, replay_set,
        "replay must deliver the identical set"
    );
    assert_eq!(
        live.totals, replayed.totals,
        "replay stats must be identical"
    );
    // A tape has no positions, so the replay draws no Fig. 4b map.
    live.metrics.map.clear();
    assert_eq!(
        live.metrics, replayed.metrics,
        "replay must measure what the live run measured"
    );
    println!(
        "\nreplay: {} delivered (node, message) pairs — byte-identical to live",
        replay_set.len()
    );
    println!(
        "  transfers {}  delay {}",
        replayed.totals.bundles_received,
        delay_quantiles_line(&replayed.metrics.delays.cdf_all_hours())
    );

    // --- 4. Characterize recorded vs synthetic.
    println!("\n--- recorded tape analytics ---");
    println!("{}", TraceAnalytics::compute(&tape).report());
    let synthetic = generate_social_trace(&SocialTraceConfig {
        nodes: tape.node_count(),
        days: cfg.days,
        ..SocialTraceConfig::default()
    })
    .expect("valid synthetic config");
    println!("--- synthetic social trace (same population) ---");
    println!("{}", TraceAnalytics::compute(&synthetic).report());

    println!("ok: record -> codec round-trip -> replay is byte-identical");
}
