//! The engine's correctness contract: on any trajectory set, the grid
//! kernel emits the *same contact stream* as the naive all-pairs scan —
//! same pairs, same up/down tick times, same distances — so the two
//! sources are interchangeable under the experiment driver.

use proptest::prelude::*;
use rand::SeedableRng;
use sos_engine::{ShardConfig, ShardedContactEngine};
use sos_sim::geo::{Bounds, Point};
use sos_sim::mobility::random_waypoint::RandomWaypoint;
use sos_sim::mobility::schedule::{DailySchedule, ScheduleConfig};
use sos_sim::mobility::trace::Trajectory;
use sos_sim::{EncounterSource, SimDuration, SimTime, World};

fn assert_equivalent(trajectories: Vec<Trajectory>, range_m: f64, tick: SimDuration, end: SimTime) {
    let world = World::new(trajectories.clone(), range_m, tick);
    let engine =
        ShardedContactEngine::from_trajectories(&trajectories, range_m, tick, ShardConfig::SINGLE);
    let naive = world.encounter_events(SimTime::ZERO, end);
    let grid = engine.encounter_events(SimTime::ZERO, end);
    assert_eq!(
        naive, grid,
        "grid kernel diverged from naive scan (range {range_m} m, tick {tick:?})"
    );
    // Intervals follow from events, but assert them too: they are what
    // the driver's contact-down scheduling actually consumes.
    assert_eq!(
        world.encounter_intervals(SimTime::ZERO, end),
        engine.encounter_intervals(SimTime::ZERO, end),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random-waypoint crowds in a small area (dense, many
    /// transitions): identical streams.
    #[test]
    fn random_waypoint_equivalence(seed in 0u64..1_000, nodes in 2usize..24) {
        let rwp = RandomWaypoint::pedestrian(Bounds::new(400.0, 300.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let duration = SimDuration::from_mins(40);
        let trajectories: Vec<Trajectory> =
            (0..nodes).map(|_| rwp.generate(&mut rng, duration)).collect();
        assert_equivalent(
            trajectories,
            60.0,
            SimDuration::from_secs(30),
            SimTime::from_mins(40),
        );
    }

    /// Schedule-based mobility (the field-study model, with long
    /// dormant spans the kernel skips): identical streams.
    #[test]
    fn daily_schedule_equivalence(seed in 0u64..1_000) {
        let config = ScheduleConfig {
            bounds: Bounds::new(2_000.0, 1_500.0),
            campus_center: Point::new(1_000.0, 750.0),
            days: 1,
            ..ScheduleConfig::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let schedule = DailySchedule::new(config, 10, &mut rng);
        let trajectories = schedule.generate_all(seed ^ 0xfeed);
        assert_equivalent(
            trajectories,
            60.0,
            SimDuration::from_secs(30),
            SimTime::from_hours(24),
        );
    }

    /// Odd geometry: range/tick combinations that stress cell-boundary
    /// and tick-alignment behavior, on a fixed crossing scenario.
    #[test]
    fn parameter_grid_equivalence(range in 5.0f64..200.0, tick_secs in 1u64..120) {
        let trajectories = vec![
            Trajectory::new(vec![
                (SimTime::ZERO, Point::new(0.0, 0.0)),
                (SimTime::from_secs(500), Point::new(500.0, 10.0)),
                (SimTime::from_secs(900), Point::new(500.0, 10.0)), // wait
                (SimTime::from_secs(1400), Point::new(0.0, 20.0)),
            ]).unwrap(),
            Trajectory::new(vec![
                (SimTime::ZERO, Point::new(500.0, 0.0)),
                (SimTime::from_secs(700), Point::new(0.0, 0.0)),
            ]).unwrap(),
            Trajectory::stationary(Point::new(250.0, 5.0)),
        ];
        assert_equivalent(
            trajectories,
            range,
            SimDuration::from_secs(tick_secs),
            SimTime::from_secs(1500),
        );
    }
}

#[test]
fn larger_population_spot_check() {
    // One deterministic mid-size case (120 nodes, denser than the
    // proptest cases) so a grid bug that only appears with many
    // occupied cells cannot hide behind small random cases.
    let rwp = RandomWaypoint::pedestrian(Bounds::new(1_500.0, 1_000.0));
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let trajectories: Vec<Trajectory> = (0..120)
        .map(|_| rwp.generate(&mut rng, SimDuration::from_mins(30)))
        .collect();
    assert_equivalent(
        trajectories,
        60.0,
        SimDuration::from_secs(30),
        SimTime::from_mins(30),
    );
}
