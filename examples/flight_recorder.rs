//! Flight recorder: the eviction scenario with the observability layer
//! attached — every session, transfer, and store eviction lands in a
//! bounded sim-time-stamped journal that dumps as JSONL, while the
//! nodes' counters land in a metrics registry and the hot paths feed
//! the span profiler.
//!
//! Demonstrates the `sos-obs` invariants end-to-end:
//!
//! * observation is passive — an observed run matches an unobserved one;
//! * the journal is deterministic — two observed runs dump identical
//!   JSONL;
//! * the relay's capacity cap shows up as `store_evict` events whose
//!   total matches the holes the gap-aware sync later heals.
//!
//! ```sh
//! cargo run --release --example flight_recorder
//! ```

use sos::experiments::eviction::{run_eviction_study, EvictionStudyConfig};
use sos::experiments::observe::RunObserver;

fn main() {
    let config = EvictionStudyConfig::default();
    println!(
        "flight recorder: eviction scenario, {} rounds x {} posts, relay cap {}\n",
        config.rounds, config.posts_per_round, config.relay_capacity
    );

    let observer = RunObserver::with_profiling();
    let outcome = run_eviction_study(&config, Some(&observer));
    let observation = observer.finish();
    print!("{}", outcome.format_report());

    // The relay's cap must have evicted, and the journal saw it happen.
    let journal = &observation.journal;
    assert!(!journal.is_empty(), "observed run must journal events");
    assert!(
        journal.evicted_total() > 0,
        "capped relay must evict bundles"
    );
    println!(
        "\njournal: {} entries retained, {} dropped",
        journal.len(),
        journal.dropped()
    );
    for (kind, n) in journal.counts_by_kind() {
        println!("  {kind:<18} {n}");
    }

    // Registry counters mirror the middleware stats exactly.
    assert_eq!(
        observation.metrics.counters["node0/sos/posts"], outcome.posts,
        "registry must mirror the author's post counter"
    );

    // JSONL dump: head to stdout, full journal to target/.
    let jsonl = journal.to_jsonl();
    println!("\nJSONL head:");
    for line in jsonl.lines().take(8) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", jsonl.lines().count());
    std::fs::create_dir_all("target").expect("create target dir");
    let path = std::path::Path::new("target").join("flight_recorder.jsonl");
    std::fs::write(&path, &jsonl).expect("write journal dump");
    println!("full journal written to {}", path.display());

    // Determinism: a second observed run dumps byte-identical JSONL.
    let observer2 = RunObserver::new();
    let outcome2 = run_eviction_study(&config, Some(&observer2));
    assert_eq!(outcome2.delivered_final, outcome.delivered_final);
    assert_eq!(
        observer2.finish().journal.to_jsonl(),
        jsonl,
        "journal must be deterministic across runs"
    );

    if !observation.profile.is_empty() {
        println!("\nself-profile:\n{}", observation.profile.table());
    }
    println!("\nok: passive, deterministic flight recording of the eviction run");
}
