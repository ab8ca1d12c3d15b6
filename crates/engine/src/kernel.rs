//! The single-loop front of the contact kernel.
//!
//! [`GridContactEngine`] produces the same contact-transition stream as
//! the naive [`World`](sos_sim::World) scan — same pairs, same up/down
//! tick times, same distances — without touching every pair on every
//! tick. It owns no loop of its own: the crate has one tick loop
//! (`crate::tick`: a wake calendar that skips dormant nodes, and a
//! mover-centric pair check over a [`UniformGrid`](crate::UniformGrid)
//! and the open-contact lists), and this type is a newtype over
//! [`ShardedContactEngine`] with **one shard, one thread and one epoch
//! spanning the whole window**, behind the constructor a caller with
//! per-node [`Trajectory`] values wants; the waypoints are stored once,
//! in the engine's trajectory set. The equivalence tests in
//! `tests/equivalence.rs` assert byte-for-byte identical event streams
//! against the naive scan; `tests/shard_equivalence.rs` then compares
//! every other shard count and epoch length with this one.

use crate::shard::{ShardConfig, ShardedContactEngine};
use sos_sim::mobility::trace::Trajectory;
use sos_sim::world::{ContactEvent, ContactSource};
use sos_sim::{Point, SimDuration, SimTime};

/// The spatial-grid, event-driven contact source: a
/// [`ShardedContactEngine`] pinned to one shard, one thread and one
/// epoch. It keeps no waypoints of its own; positions come from the
/// engine's [`TrajectorySet`](sos_sim::mobility::TrajectorySet), whose
/// `position_at` is bit-identical to [`Trajectory::position_at`].
#[derive(Clone, Debug)]
pub struct GridContactEngine(ShardedContactEngine);

impl GridContactEngine {
    /// Creates an engine over the given trajectories.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is empty, `range_m` is not positive, or
    /// `tick` is zero — the same contract as [`sos_sim::World::new`].
    pub fn new(
        trajectories: Vec<Trajectory>,
        range_m: f64,
        tick: SimDuration,
    ) -> GridContactEngine {
        let config = ShardConfig {
            shards: 1,
            epoch_ticks: u64::MAX,
            threads: 1,
        };
        GridContactEngine(ShardedContactEngine::from_trajectories(
            &trajectories,
            range_m,
            tick,
            config,
        ))
    }

    /// Rebuilds an engine from an existing [`sos_sim::World`],
    /// preserving its range and discovery tick.
    pub fn from_world(world: sos_sim::World) -> GridContactEngine {
        let range_m = world.range_m();
        let tick = world.tick();
        GridContactEngine::new(world.into_trajectories(), range_m, tick)
    }

    /// The discovery tick.
    pub fn tick(&self) -> SimDuration {
        self.0.tick()
    }
}

impl ContactSource for GridContactEngine {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn range_m(&self) -> f64 {
        self.0.range_m()
    }

    fn position(&self, node: usize, t: SimTime) -> Point {
        self.0.position(node, t)
    }

    fn contact_events(&self, start: SimTime, end: SimTime) -> Vec<ContactEvent> {
        self.0.contact_events(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_sim::world::ContactInterval;
    use sos_sim::World;

    fn crossing() -> Vec<Trajectory> {
        vec![
            Trajectory::new(vec![
                (SimTime::ZERO, Point::new(0.0, 0.0)),
                (SimTime::from_secs(1000), Point::new(1000.0, 0.0)),
            ])
            .unwrap(),
            Trajectory::new(vec![
                (SimTime::ZERO, Point::new(1000.0, 0.0)),
                (SimTime::from_secs(1000), Point::new(0.0, 0.0)),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn crossing_pair_matches_naive_scan() {
        let tick = SimDuration::from_secs(10);
        let end = SimTime::from_secs(1000);
        let engine = GridContactEngine::new(crossing(), 60.0, tick);
        let world = World::new(crossing(), 60.0, tick);
        assert_eq!(
            ContactSource::contact_events(&engine, SimTime::ZERO, end),
            World::contact_events(&world, SimTime::ZERO, end)
        );
    }

    #[test]
    fn stationary_pair_contact_spans_whole_window() {
        let engine = GridContactEngine::new(
            vec![
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::stationary(Point::new(30.0, 0.0)),
            ],
            60.0,
            SimDuration::from_secs(30),
        );
        let ivs = engine.contact_intervals(SimTime::ZERO, SimTime::from_hours(1));
        assert_eq!(
            ivs,
            vec![ContactInterval {
                a: 0,
                b: 1,
                start: SimTime::ZERO,
                end: SimTime::from_hours(1),
            }]
        );
        // Dormant nodes schedule no wake-ups, so this costs two
        // initial inserts and nothing per tick (observable only as
        // speed, asserted structurally: no events beyond the initial).
        let events = ContactSource::contact_events(&engine, SimTime::ZERO, SimTime::from_hours(1));
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn distant_mover_never_contacts() {
        let engine = GridContactEngine::new(
            vec![
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::new(vec![
                    (SimTime::ZERO, Point::new(5000.0, 0.0)),
                    (SimTime::from_secs(100), Point::new(5000.0, 4000.0)),
                ])
                .unwrap(),
            ],
            60.0,
            SimDuration::from_secs(10),
        );
        assert!(
            ContactSource::contact_events(&engine, SimTime::ZERO, SimTime::from_secs(200))
                .is_empty()
        );
    }

    #[test]
    fn from_world_preserves_parameters() {
        let world = World::new(crossing(), 60.0, SimDuration::from_secs(10));
        let events = World::contact_events(&world, SimTime::ZERO, SimTime::from_secs(1000));
        let engine = GridContactEngine::from_world(world);
        assert_eq!(engine.range_m(), 60.0);
        assert_eq!(engine.tick(), SimDuration::from_secs(10));
        assert_eq!(
            ContactSource::contact_events(&engine, SimTime::ZERO, SimTime::from_secs(1000)),
            events
        );
    }

    #[test]
    fn equal_timestamp_waypoints_match_naive_scan() {
        // Trajectory::new permits duplicate timestamps (teleports);
        // the kernel must wake on the boundary tick itself, or the
        // jump lands one tick late relative to the naive scan.
        let teleporter = Trajectory::new(vec![
            (SimTime::ZERO, Point::new(1000.0, 0.0)),
            (SimTime::from_secs(100), Point::new(1000.0, 0.0)),
            (SimTime::from_secs(100), Point::new(10.0, 0.0)), // jump into range
            (SimTime::from_secs(300), Point::new(10.0, 0.0)),
            (SimTime::from_secs(300), Point::new(2000.0, 0.0)), // jump out
        ])
        .unwrap();
        let anchor = Trajectory::stationary(Point::new(0.0, 0.0));
        for tick_secs in [7, 10, 30] {
            let tick = SimDuration::from_secs(tick_secs);
            let end = SimTime::from_secs(400);
            let trajs = vec![anchor.clone(), teleporter.clone()];
            let world = World::new(trajs.clone(), 60.0, tick);
            let engine = GridContactEngine::new(trajs, 60.0, tick);
            let naive = World::contact_events(&world, SimTime::ZERO, end);
            assert_eq!(
                ContactSource::contact_events(&engine, SimTime::ZERO, end),
                naive,
                "tick {tick_secs}s"
            );
            assert!(!naive.is_empty(), "teleport should create a contact");
        }
    }

    #[test]
    fn empty_window_is_empty() {
        let engine = GridContactEngine::new(crossing(), 60.0, SimDuration::from_secs(10));
        assert!(ContactSource::contact_events(
            &engine,
            SimTime::from_secs(10),
            SimTime::from_secs(5)
        )
        .is_empty());
    }
}
