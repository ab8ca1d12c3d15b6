//! The metropolis scaling scenario: a districts-and-transit city
//! streamed through the sharded contact kernel, with all five built-in
//! routing schemes evaluated in one pass over the contact stream.
//!
//! By default this runs two small populations so CI can smoke it. The
//! paper-scale sweep is one environment variable away:
//!
//! ```sh
//! cargo run --release --example metropolis
//! SOS_METRO_NODES=10000,100000,1000000 SOS_METRO_DAYS=2 \
//!     cargo run --release --example metropolis
//! ```
//!
//! `SOS_METRO_NODES` is a comma-separated population list;
//! `SOS_METRO_DAYS` the simulated window in days. Each population gets
//! its own city (district grid and post corpus scale with the
//! population) but shares the seed, window, and kernel parameters, so
//! rows are comparable.

use sos::experiments::metropolis::{metropolis_sweep, MetroConfig};
use sos::experiments::report::metro_table;
use std::time::Instant;

fn env_usize_list(key: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(key)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

// Wall-clock is the point here: this example reports real elapsed
// time of each population's run, not simulated behavior.
#[allow(clippy::disallowed_methods)]
fn main() {
    let populations = env_usize_list("SOS_METRO_NODES", &[1_200, 2_400]);
    let days: u64 = std::env::var("SOS_METRO_DAYS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1);
    let mut base = MetroConfig::for_nodes(populations[0]);
    base.days = days;
    println!(
        "metropolis sweep: populations {populations:?}, {days} day(s), \
         sharded contact kernel (K = cores)\n"
    );
    let start = Instant::now();
    let outcomes = metropolis_sweep(&base, &populations);
    println!("{}", metro_table(&outcomes));
    println!("sweep wall time: {:.2?}", start.elapsed());
}
