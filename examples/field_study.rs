//! The headline experiment: the 7-day, 10-user Gainesville field study
//! of paper §VI, reproduced end to end on the simulated substrate.
//!
//! Prints every figure (4a–4d) plus the §VI text metrics with
//! paper-vs-measured columns.
//!
//! Run with `cargo run --release --example field_study`
//! (optionally pass a seed: `-- 7`).

use sos::experiments::report;
use sos::experiments::scenario::{run_field_study, FieldStudyConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| FieldStudyConfig::default().seed);
    let config = FieldStudyConfig {
        seed,
        ..FieldStudyConfig::default()
    };
    eprintln!(
        "simulating {} days, {} users, {} posts, scheme {} (seed {seed}) ...",
        config.days,
        sos::experiments::social::NODES,
        config.total_posts,
        config.scheme
    );
    let outcome = run_field_study(&config);
    println!("{}", report::full_report(&outcome));

    // A few sanity properties the reproduction must satisfy.
    assert_eq!(
        sos::experiments::social::field_study_report().subscriptions,
        46
    );
    assert!(outcome.metrics.posts == config.total_posts as u64);
    assert!(
        outcome.one_hop_fraction() > 0.5,
        "the paper's majority-one-hop finding must hold"
    );
    eprintln!("done: {} transfers recorded", outcome.transfers());
}
