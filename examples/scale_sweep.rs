//! A routing-scheme comparison sweep on the spatial-grid contact
//! engine: the Fig. 4-style experiment the paper's companion platform
//! was built for, run at population scales the naive all-pairs scan
//! cannot reach.
//!
//! Runs the reduced field-study scenario under four routing schemes ×
//! three seeds, every replica on `sos-engine`'s event-driven grid
//! kernel as a single loop, replicas fanned out across CPU cores — then
//! prints the per-scheme aggregate table and a raw contact-engine
//! scaling demonstration.
//!
//! ```sh
//! cargo run --release --example scale_sweep
//! ```

use rand::SeedableRng;
use sos::core::routing::SchemeKind;
use sos::engine::{run_replicas, ShardConfig, ShardedContactEngine};
use sos::experiments::driver::{run_study, RunSummary};
use sos::experiments::report::summary_table;
use sos::experiments::scenario::{field_study, field_study_engine, small_test_config};
use sos::sim::geo::Bounds;
use sos::sim::mobility::random_waypoint::RandomWaypoint;
use sos::sim::mobility::trace::Trajectory;
use sos::sim::{EncounterSource, SimDuration, SimTime};
use std::time::Instant;

// Wall-clock is the point here: this example reports real elapsed
// time of the sweep and the grid kernel, not simulated behavior.
#[allow(clippy::disallowed_methods)]
fn main() {
    // Part 1: the scheme × seed sweep (middleware end-to-end).
    let schemes = [
        SchemeKind::Direct,
        SchemeKind::InterestBased,
        SchemeKind::Epidemic,
        SchemeKind::SprayAndWait,
    ];
    let seeds = [1, 2, 3];
    println!(
        "scheme sweep: {} schemes x {} seeds, grid engine, all cores\n",
        schemes.len(),
        seeds.len()
    );
    let start = Instant::now();
    let jobs: Vec<(SchemeKind, u64)> = schemes
        .iter()
        .flat_map(|&scheme| seeds.map(|seed| (scheme, seed)))
        .collect();
    let runs = run_replicas(jobs, 0, |_, (scheme, seed)| {
        let cfg = small_test_config(seed, scheme);
        run_study(field_study(&cfg, field_study_engine(&cfg)), None).summary()
    });
    let rows: Vec<_> = schemes
        .iter()
        .zip(runs.chunks(seeds.len()))
        .map(|(scheme, runs)| (vec![scheme.name().to_string()], RunSummary::mean(runs)))
        .collect();
    println!("{}", summary_table("scheme", &rows));
    println!("sweep wall time: {:.2?}\n", start.elapsed());

    // Part 2: raw contact detection at a population the O(n²) scan
    // cannot touch — 20 000 pedestrians over the field-study area.
    let nodes = 20_000;
    let rwp = RandomWaypoint::pedestrian(Bounds::gainesville());
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let window = SimDuration::from_mins(10);
    let trajectories: Vec<Trajectory> =
        (0..nodes).map(|_| rwp.generate(&mut rng, window)).collect();
    let engine = ShardedContactEngine::from_trajectories(
        &trajectories,
        60.0,
        SimDuration::from_secs(30),
        ShardConfig::SINGLE,
    );
    let start = Instant::now();
    let intervals = engine.encounter_intervals(SimTime::ZERO, SimTime::ZERO + window);
    println!(
        "grid engine: {} nodes, 10 min window -> {} contact intervals in {:.2?}",
        nodes,
        intervals.len(),
        start.elapsed()
    );
}
