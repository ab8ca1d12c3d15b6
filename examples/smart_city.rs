//! Smart-city scenario (paper §I motivation): "opportunistic
//! communication can also serve as a low-cost solution for smart cities,
//! allowing developing and metropolitan areas to route smart city data
//! through mobile and stationary nodes such as pedestrians, vehicles,
//! street lights, public transportation."
//!
//! Eight stationary street-light sensors post readings; two buses loop
//! through the city and pedestrians wander; a stationary data-collector
//! office subscribes to every sensor. Sensor data physically *rides the
//! bus* to the collector — classic data-mule DTN.
//!
//! Run with `cargo run --release --example smart_city`.

use rand::SeedableRng;
use sos::core::prelude::*;
use sos::experiments::driver::{run_study, Study};
use sos::net::Medium;
use sos::sim::geo::{Bounds, Point};
use sos::sim::mobility::random_waypoint::RandomWaypoint;
use sos::sim::mobility::trace::{Trajectory, TrajectoryBuilder};
use sos::sim::radio::RadioTech;
use sos::sim::{SimDuration, SimTime, World};
use sos::social::AlleyOopApp;

const SENSORS: usize = 8;
const BUSES: usize = 2;
const PEDESTRIANS: usize = 4;
const HOURS: u64 = 24;

/// Node layout: 0 = collector, 1..=8 sensors, 9..10 buses, 11.. pedestrians.
fn total_nodes() -> usize {
    1 + SENSORS + BUSES + PEDESTRIANS
}

fn sensor_position(i: usize) -> Point {
    // Street lights along a 4 km main road grid.
    let x = 500.0 + (i % 4) as f64 * 1_000.0;
    let y = 1_000.0 + (i / 4) as f64 * 2_000.0;
    Point::new(x, y)
}

fn bus_route(offset_ms: u64, hours: u64) -> Trajectory {
    // A loop passing every sensor and the collector depot.
    let depot = Point::new(100.0, 100.0);
    let mut b = TrajectoryBuilder::new(SimTime::ZERO, depot);
    b.wait_until(SimTime::from_millis(offset_ms));
    let end = SimTime::from_hours(hours);
    while b.now() < end {
        for stop in (0..SENSORS).map(sensor_position).chain([depot]) {
            b.travel_to(stop, 8.0).expect("positive bus speed"); // ~30 km/h
            let dwell = b.now() + SimDuration::from_secs(90); // bus stop
            b.wait_until(dwell);
        }
    }
    b.build()
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let n = total_nodes();

    // Signup: city infrastructure enrolls devices once at install time.
    // Epidemic: city data is public and replication is cheap relative
    // to the value of delivery.
    let handles = (0..n).map(|i| match i {
        0 => "collector".to_string(),
        i if i <= SENSORS => format!("sensor-{i:02}"),
        i if i <= SENSORS + BUSES => format!("bus-{}", i - SENSORS),
        i => format!("walker-{}", i - SENSORS - BUSES),
    });
    let mut apps =
        AlleyOopApp::sign_up_fleet("SmartCity CA", 3, handles, SchemeKind::Epidemic, &mut rng);

    // The collector subscribes to every sensor; buses and pedestrians
    // are pure mules (epidemic carries without subscription).
    let mut followers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for s in 1..=SENSORS {
        let uid = apps[s].user_id();
        apps[0].follow(uid);
        followers[s].push(0);
    }

    // Mobility: sensors and the collector are bolted down; buses loop;
    // pedestrians wander the 4 km x 4 km downtown.
    let bounds = Bounds::new(4_000.0, 4_000.0);
    let mut trajectories = vec![Trajectory::stationary(Point::new(100.0, 100.0))];
    for s in 0..SENSORS {
        trajectories.push(Trajectory::stationary(sensor_position(s)));
    }
    for b in 0..BUSES {
        trajectories.push(bus_route(b as u64 * 1_800_000, HOURS)); // 30 min apart
    }
    let rwp = RandomWaypoint::pedestrian(bounds);
    for p in 0..PEDESTRIANS {
        let mut prng = rand::rngs::StdRng::seed_from_u64(400 + p as u64);
        trajectories.push(rwp.generate(&mut prng, SimDuration::from_hours(HOURS)));
    }
    let world = World::new(
        trajectories,
        RadioTech::max_range_m(false),
        SimDuration::from_secs(10),
    );

    // Each sensor posts a reading every 2 hours.
    let posts = (1..=SENSORS)
        .flat_map(|s| {
            (0..HOURS)
                .step_by(2)
                .map(move |h| (SimTime::from_hours(h) + SimDuration::from_mins(s as u64), s))
        })
        .collect();
    let run = run_study(
        Study {
            scheme: SchemeKind::Epidemic,
            seed: 11,
            apps,
            source: world,
            followers,
            posts,
            ad_interval: SimDuration::from_secs(30),
            air: Medium::Radio { infra: false },
            end: SimTime::from_hours(HOURS),
        },
        None,
    );
    let (metrics, apps) = (run.metrics, run.apps);
    let cdf = metrics.delays.cdf_all_hours();
    println!("smart city: {SENSORS} sensors, {BUSES} buses, {PEDESTRIANS} pedestrians, {HOURS} h");
    println!("sensor readings posted:        {}", metrics.posts);
    println!(
        "readings delivered to collector: {} ({:.1}%)",
        metrics.delays.len(),
        100.0 * metrics.delivery.overall_ratio()
    );
    if !cdf.is_empty() {
        println!(
            "delivery latency: median {:.2} h, p90 {:.2} h, max {:.2} h",
            cdf.quantile(0.5),
            cdf.quantile(0.9),
            cdf.max().unwrap_or(f64::NAN)
        );
    }
    let mule_bundles: u64 = apps
        .iter()
        .skip(1 + SENSORS)
        .map(|a| a.middleware().stats().bundles_received)
        .sum();
    println!("bundles carried by mules (buses+walkers): {mule_bundles}");
    println!();
    println!("the buses are the backbone: sensor data hops on at a stop and");
    println!("rides to the depot where the collector pulls it off.");
}
