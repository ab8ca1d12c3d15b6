//! The sharded kernel's correctness contract: on any trajectory set,
//! any shard count, and any epoch length, [`ShardedContactEngine`]
//! emits a contact stream *byte-identical* to the single loop
//! ([`ShardConfig::SINGLE`]) — same pairs, same tick times, same
//! distances.
//!
//! The first group of cases deliberately stresses the boundary-handoff
//! protocol: nodes oscillating back and forth across shard boundaries
//! (ownership churn every epoch), nodes parked *exactly on* a boundary
//! coordinate (quantile boundaries are sampled from node positions, so
//! exact ties happen), and pairs separated by almost exactly the radio
//! range across a boundary (the halo width).
//!
//! The second group goes straight to the O(n²) [`World`] scan at
//! K ∈ {1, 2, 4} and aims at the tick loop's own rule — a pair is
//! examined once, from its lowest-indexed mover, through the open list
//! or the 3×3 block but never both: crowds where both ends of most
//! pairs move every tick, partners that leave the block in one tick,
//! pairs at exactly the radio range, epochs longer than the clock, and
//! a small city with the dense housing blocks of the real workload.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sos_engine::{ShardConfig, ShardedContactEngine};
use sos_sim::geo::{Bounds, Point};
use sos_sim::mobility::random_waypoint::RandomWaypoint;
use sos_sim::mobility::trace::Trajectory;
use sos_sim::mobility::{Metropolis, MetropolisConfig};
use sos_sim::world::{ContactEvent, ContactPhase};
use sos_sim::{EncounterSource, SimDuration, SimTime, World};

fn assert_sharded_matches(
    trajectories: &[Trajectory],
    range_m: f64,
    tick: SimDuration,
    end: SimTime,
    shards: usize,
    epoch_ticks: u64,
) {
    let single =
        ShardedContactEngine::from_trajectories(trajectories, range_m, tick, ShardConfig::SINGLE);
    let sharded = ShardedContactEngine::from_trajectories(
        trajectories,
        range_m,
        tick,
        ShardConfig {
            shards,
            epoch_ticks,
            threads: 0,
        },
    );
    let expected = single.encounter_events(SimTime::ZERO, end);
    let got = sharded.encounter_events(SimTime::ZERO, end);
    assert_eq!(
        expected, got,
        "sharded stream diverged (K={shards}, epoch_ticks={epoch_ticks}, range {range_m} m)"
    );
}

/// Nodes that oscillate horizontally forever: every epoch hands some
/// of them to a different owner.
fn oscillating_population(seed: u64, nodes: usize, end: SimTime) -> Vec<Trajectory> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..nodes)
        .map(|_| {
            let x0 = rng.gen_range(0.0..600.0);
            let amp = rng.gen_range(10.0..300.0);
            let y = rng.gen_range(0.0..120.0);
            let leg = rng.gen_range(45u64..240);
            let mut points = vec![(SimTime::ZERO, Point::new(x0, y))];
            let mut t = 0u64;
            let mut at_far = false;
            while SimTime::from_secs(t) < end {
                t += leg;
                at_far = !at_far;
                let x = if at_far { x0 + amp } else { x0 };
                points.push((SimTime::from_secs(t), Point::new(x, y)));
            }
            Trajectory::new(points).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ownership churn: every node crosses shard boundaries again and
    /// again, with epochs short enough that handoffs happen constantly.
    #[test]
    fn oscillating_boundary_churn(
        seed in 0u64..1_000,
        nodes in 4usize..20,
        shards in 1usize..9,
        epoch_ticks in 1u64..40,
    ) {
        let end = SimTime::from_mins(30);
        let trajectories = oscillating_population(seed, nodes, end);
        assert_sharded_matches(
            &trajectories,
            60.0,
            SimDuration::from_secs(30),
            end,
            shards,
            epoch_ticks,
        );
    }

    /// Exact ties and halo-width edges: nodes parked on the same x as
    /// a mover's turning point (a future quantile boundary), and pairs
    /// whose separation brushes the radio range across that line.
    #[test]
    fn on_boundary_nodes_and_halo_width_pairs(
        seed in 0u64..1_000,
        range in 30.0f64..90.0,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let boundary_x = rng.gen_range(100.0..300.0);
        let eps = rng.gen_range(0.001..0.5);
        let mut trajectories = vec![
            // Parked exactly on the boundary coordinate, twice (ties).
            Trajectory::stationary(Point::new(boundary_x, 0.0)),
            Trajectory::stationary(Point::new(boundary_x, 40.0)),
            // A halo-width pair: just inside / just outside range of
            // the boundary sitters.
            Trajectory::stationary(Point::new(boundary_x + range - eps, 0.0)),
            Trajectory::stationary(Point::new(boundary_x + range + eps, 40.0)),
            // A mover that turns around exactly on the boundary.
            Trajectory::new(vec![
                (SimTime::ZERO, Point::new(boundary_x - 200.0, 20.0)),
                (SimTime::from_secs(400), Point::new(boundary_x, 20.0)),
                (SimTime::from_secs(800), Point::new(boundary_x - 200.0, 20.0)),
                (SimTime::from_secs(1_200), Point::new(boundary_x + 200.0, 20.0)),
            ])
            .unwrap(),
        ];
        // Background crowd so the quantile sampler has mass on both
        // sides of the boundary.
        for _ in 0..8 {
            let x = rng.gen_range(0.0..2.0 * boundary_x);
            let y = rng.gen_range(0.0..80.0);
            trajectories.push(Trajectory::stationary(Point::new(x, y)));
        }
        for k in [2usize, 4] {
            assert_sharded_matches(
                &trajectories,
                range,
                SimDuration::from_secs(15),
                SimTime::from_secs(1_500),
                k,
                5,
            );
        }
    }

    /// Epoch grids that do not divide the window evenly (last epoch is
    /// short) still concatenate to the exact stream.
    #[test]
    fn ragged_final_epoch(epoch_ticks in 1u64..97, end_secs in 100u64..2_000) {
        let trajectories = oscillating_population(42, 8, SimTime::from_secs(2_000));
        assert_sharded_matches(
            &trajectories,
            60.0,
            SimDuration::from_secs(30),
            SimTime::from_secs(end_secs),
            3,
            epoch_ticks,
        );
    }
}

#[test]
fn deterministic_across_shard_counts_and_reruns() {
    // The stream must be one function of (trajectories, range, tick,
    // window) — invariant under K = 1, 4, 16 and across reruns.
    let rwp = RandomWaypoint::pedestrian(Bounds::new(900.0, 500.0));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let trajectories: Vec<Trajectory> = (0..60)
        .map(|_| rwp.generate(&mut rng, SimDuration::from_mins(25)))
        .collect();
    let tick = SimDuration::from_secs(30);
    let end = SimTime::from_mins(25);
    let single =
        ShardedContactEngine::from_trajectories(&trajectories, 60.0, tick, ShardConfig::SINGLE);
    let expected = single.encounter_events(SimTime::ZERO, end);
    assert!(!expected.is_empty(), "scenario should produce contacts");
    for k in [1usize, 4, 16] {
        let engine = ShardedContactEngine::from_trajectories(
            &trajectories,
            60.0,
            tick,
            ShardConfig {
                shards: k,
                epoch_ticks: 8,
                threads: 0,
            },
        );
        let first = engine.encounter_events(SimTime::ZERO, end);
        let second = engine.encounter_events(SimTime::ZERO, end);
        assert_eq!(expected, first, "K={k} diverged from the single loop");
        assert_eq!(first, second, "K={k} was not deterministic across reruns");
    }
}

#[test]
fn more_shards_than_nodes() {
    // Degenerate partition: K far above the population still owns
    // every node exactly once and emits the exact stream.
    let trajectories = oscillating_population(3, 3, SimTime::from_mins(10));
    assert_sharded_matches(
        &trajectories,
        60.0,
        SimDuration::from_secs(30),
        SimTime::from_mins(10),
        16,
        4,
    );
}

/// Asserts the sharded stream of `[start, end]` equals the naive
/// [`World`] scan's for every `(K, epoch_ticks)` given, and returns it.
fn assert_matches_world(
    trajectories: &[Trajectory],
    range_m: f64,
    tick: SimDuration,
    (start, end): (SimTime, SimTime),
    configs: &[(usize, u64)],
) -> Vec<ContactEvent> {
    let world = World::new(trajectories.to_vec(), range_m, tick);
    let expected = world.encounter_events(start, end);
    for &(shards, epoch_ticks) in configs {
        let config = ShardConfig {
            shards,
            epoch_ticks,
            threads: 0,
        };
        let engine = ShardedContactEngine::from_trajectories(trajectories, range_m, tick, config);
        assert_eq!(
            expected,
            engine.encounter_events(start, end),
            "diverged from the naive scan (K={shards}, epoch_ticks={epoch_ticks})"
        );
    }
    expected
}

/// K ∈ {1, 2, 4}, epochs of five ticks.
const K124: [(usize, u64); 3] = [(1, 5), (2, 5), (4, 5)];

/// A trajectory that stands still between the given `(secs, x, y)`
/// stops and jumps from one to the next in no time.
fn teleporter(stops: &[(u64, f64, f64)]) -> Trajectory {
    let mut points: Vec<(SimTime, Point)> = Vec::new();
    for &(t, x, y) in stops {
        if let Some(&(_, last)) = points.last() {
            points.push((SimTime::from_secs(t), last));
        }
        points.push((SimTime::from_secs(t), Point::new(x, y)));
    }
    Trajectory::new(points).unwrap()
}

#[test]
fn crowd_of_movers_in_two_adjacent_cells() {
    // 48 nodes that never rest inside the two 60 m cells x ∈ [0, 120),
    // y ∈ [0, 60): on most ticks both ends of a pair move, the pair is
    // in the 3×3 block of both *and* (when open) in both open lists.
    let mut rng = rand::rngs::StdRng::seed_from_u64(48);
    let end = SimTime::from_mins(20);
    let trajectories: Vec<Trajectory> = (0..48)
        .map(|_| {
            let mut t = 0u64;
            let mut points = Vec::new();
            while SimTime::from_secs(t) <= end {
                let p = Point::new(rng.gen_range(0.0..120.0), rng.gen_range(0.0..60.0));
                points.push((SimTime::from_secs(t), p));
                t += rng.gen_range(15u64..50);
            }
            Trajectory::new(points).unwrap()
        })
        .collect();
    let tick = SimDuration::from_secs(10);
    let events = assert_matches_world(&trajectories, 60.0, tick, (SimTime::ZERO, end), &K124);
    let both_moving = events.iter().filter(|e| e.time > SimTime::ZERO).count();
    assert!(both_moving > 5_000, "only {both_moving} transitions");
}

#[test]
fn open_partner_leaves_the_block_in_one_tick() {
    // The Down of a pair whose partner jumps kilometres away is
    // reachable through the open list only; both ends jumping apart in
    // the same tick is examined from the lower index only.
    let trajectories = vec![
        Trajectory::stationary(Point::new(0.0, 0.0)),
        teleporter(&[(0, 10.0, 0.0), (100, 5_000.0, 5_000.0), (200, 10.0, 0.0)]),
        teleporter(&[(0, 20.0, 5.0), (300, -4_000.0, 20.0), (400, 25.0, 5.0)]),
        teleporter(&[(0, 15.0, 9.0), (300, 7_000.0, -3_000.0), (400, 5.0, 9.0)]),
        Trajectory::stationary(Point::new(5_010.0, 5_000.0)),
    ];
    for tick_secs in [7, 10, 100] {
        let events = assert_matches_world(
            &trajectories,
            60.0,
            SimDuration::from_secs(tick_secs),
            (SimTime::ZERO, SimTime::from_secs(500)),
            &K124,
        );
        let downs = events.iter().filter(|e| e.distance_m > 1_000.0).count();
        assert_eq!(downs, 3 + 1 + 5, "tick {tick_secs}s: {events:?}");
    }
}

#[test]
fn pairs_at_exactly_the_radio_range() {
    // `d <= range` on the `sqrt` form: exactly 60 m is in contact, one
    // ulp more is not. Node 1 visits 60 m, then an ulp outside, then an
    // ulp inside along the x-axis; node 2 does the same on the 3-4-5
    // diagonal (36² + 48² = 60² exactly).
    let (inside, outside) = (60.0f64.next_down(), 60.0f64.next_up());
    let trajectories = vec![
        Trajectory::stationary(Point::new(0.0, 0.0)),
        teleporter(&[
            (0, 500.0, 0.0),
            (100, 60.0, 0.0),
            (200, outside, 0.0),
            (300, inside, 0.0),
        ]),
        teleporter(&[
            (0, 0.0, 900.0),
            (100, -36.0, 48.0),
            (200, -36.0, 48.0f64.next_up()),
            (300, -36.0, 48.0f64.next_down()),
        ]),
    ];
    let events = assert_matches_world(
        &trajectories,
        60.0,
        SimDuration::from_secs(10),
        (SimTime::ZERO, SimTime::from_secs(400)),
        &K124,
    );
    let with_anchor: Vec<(usize, bool, f64)> = events
        .iter()
        .filter(|e| e.a == 0)
        .map(|e| (e.b, e.phase == ContactPhase::Up, e.distance_m))
        .collect();
    assert_eq!(with_anchor.len(), 6, "{events:?}");
    for (b, up, d) in with_anchor {
        assert_eq!(up, d <= 60.0, "node {b} at {d}");
    }
    assert!(events.iter().any(|e| e.distance_m == 60.0));
}

#[test]
fn epochs_longer_than_the_clock() {
    // `epoch_ticks = u64::MAX` is how one asks for a single epoch; the
    // epoch arithmetic must saturate, not wrap, whatever the window
    // start is.
    let trajectories = oscillating_population(11, 12, SimTime::from_secs(12_000));
    let configs: Vec<(usize, u64)> = [1, 3]
        .iter()
        .flat_map(|&k| [1, 7, u64::MAX].map(|epoch_ticks| (k, epoch_ticks)))
        .collect();
    for start_secs in [0, 10_000] {
        let window = (
            SimTime::from_secs(start_secs),
            SimTime::from_secs(start_secs + 1_500),
        );
        let tick = SimDuration::from_secs(30);
        let events = assert_matches_world(&trajectories, 60.0, tick, window, &configs);
        assert!(events.len() > 20, "window at {start_secs}s is too quiet");
    }
}

#[test]
fn small_metropolis_morning() {
    // The workload's shape at a size the naive scan can follow: 300
    // residents of one district, housing blocks whose members are all
    // in range of each other, from midnight through the morning
    // commute (nobody moves before 06:00, so the window runs to 10:00).
    let nodes = 300;
    let config = MetropolisConfig {
        days: 1,
        ..MetropolisConfig::for_population(nodes)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let city = Metropolis::new(config, nodes, &mut rng).generate_all(5);
    let events = assert_matches_world(
        &city.to_trajectories(),
        60.0,
        SimDuration::from_secs(30),
        (SimTime::ZERO, SimTime::from_hours(10)),
        &[(1, 32), (2, 32), (4, 32)],
    );
    let later = events.iter().filter(|e| e.time > SimTime::ZERO).count();
    assert!(later > 1_000, "only {later} transitions after midnight");
}
