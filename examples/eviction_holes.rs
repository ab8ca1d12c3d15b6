//! Delivery under store eviction: demonstrates the permanent-hole bug
//! the v1 watermark sync protocol had, and its fix by gap-aware ranged
//! requests (sync protocol v2).
//!
//! A capacity-constrained relay shuttles batches of an author's posts to
//! a subscriber; the relay's cap evicts the oldest posts between trips,
//! so the subscriber's store develops holes while its latest watermark
//! looks current. The final direct encounter with the author re-fetches
//! exactly the missing middles.
//!
//! ```sh
//! cargo run --release --example eviction_holes
//! ```

use sos::experiments::eviction::{run_eviction_study, EvictionStudyConfig};

fn main() {
    let config = EvictionStudyConfig::default();
    println!(
        "eviction scenario: {} rounds x {} posts, relay cap {}\n",
        config.rounds, config.posts_per_round, config.relay_capacity
    );
    let outcome = run_eviction_study(&config, None);
    println!("{}", outcome.format_report());
    assert_eq!(
        outcome.delivered_final, outcome.posts,
        "gap-aware sync must recover every evicted hole"
    );
    println!("ok: every hole healed at the first direct author encounter");
}
