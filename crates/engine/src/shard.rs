//! The sharded contact kernel: one world stepped across all cores.
//!
//! [`ShardedContactEngine`] partitions the plane into K vertical strips
//! and steps each strip with its own worker: its own wake calendar,
//! local uniform grid, open-contact lists and cache-linear
//! struct-of-arrays node state ([`TrajectorySet`]). Every worker runs
//! the crate's one tick loop (`crate::tick`); with one shard and one
//! epoch ([`ShardConfig::SINGLE`]) the engine *is* the single loop. The
//! merged `ContactUp`/`ContactDown` stream is **byte-identical** for
//! every K, epoch length and thread count — `tests/equivalence.rs`
//! pins K = 1 to the naive [`World`](sos_sim::World) scan and
//! `tests/shard_equivalence.rs` pins every other configuration to
//! K = 1, event for event, bit for bit.
//!
//! # Epochs and the boundary-handoff protocol
//!
//! Time is divided into **epochs** of `epoch_ticks` discovery ticks,
//! aligned to the global tick grid. Each epoch runs three deterministic
//! steps:
//!
//! 1. **Partition.** Nodes are assigned an *owner* shard by sampled
//!    x-quantiles of their current positions (so strips track the
//!    population as it commutes). For every node the kernel computes
//!    its x-**extent** over the epoch (positions at both epoch
//!    boundaries plus every waypoint inside the window); a shard's
//!    **reach** is the hull of its owned extents inflated by the radio
//!    range `r`. A shard *hosts* every node whose extent intersects its
//!    reach — owned nodes plus a halo of potential contact partners.
//!    This is the handoff: nodes crossing a strip edge (or within a
//!    halo of it) are handed to every shard that might see them. With
//!    one shard there is nothing to decide and the step is skipped.
//! 2. **Parallel step.** Each worker steps its hosted set through the
//!    epoch window with the tick loop. A worker whose hosted set is the
//!    one it had last epoch carries its local state over — at an epoch
//!    boundary that state is exact for every hosted node and pair, since
//!    a transition depends on the two trajectories alone; any other
//!    worker rebuilds positions, grid, open lists (the global open pairs
//!    whose endpoints are both hosted, translated through a dense
//!    global→local table) and next wakes in O(hosted + their open
//!    degree). A pair `(a, b)` (`a < b`) is *emitted* only by the shard
//!    owning `a`; other shards hosting both compute the identical
//!    transitions silently. Because the owner's reach covers
//!    `extent(a) ± r`, any node able to touch `a` during the epoch is
//!    hosted there — so every transition is emitted exactly once.
//! 3. **Barrier merge and handoff.** Per-shard streams (each already in
//!    `(time, a, b)` order, keys unique) are merged as K sorted runs —
//!    never by map iteration; a single shard's stream is passed on as it
//!    is. Then every shard writes back the position and the open list of
//!    each node it *owns* that changed during the epoch — the owner
//!    hosts every partner an owned node can have, so its list is the
//!    whole list — which keeps the global positions and open-contact
//!    adjacency (unordered `Vec`s, no hashing) exact for whichever shard
//!    rebuilds from them next.
//!
//! # One shard
//!
//! With K = 1 the single shard is hosted once, with every node, and
//! never rebuilt: the global positions and open lists are read by its
//! first build and by nothing after it. So the shard neither marks what
//! changed during an epoch nor writes anything back — there is no
//! handoff to itself. This is exact because the only reader of the
//! global state is a rebuild, and a rebuild needs a hosted set that
//! changed; K is a fact the engine holds, not an option.
//!
//! # Why the streams are identical
//!
//! Within a shard the stream is totally ordered by `(time, a, b)`:
//! ticks advance monotonically and each tick's transitions are sorted
//! before they are emitted (`crate::tick` says why that tick's set is
//! exact). Every shard samples the same trajectories at the same tick
//! grid with the same `f64` arithmetic ([`TrajectorySet`] mirrors
//! `Trajectory::position_at` operation for operation), wakes nodes by
//! the same rule, and a transition for `(a, b)` depends only on the two
//! nodes' waypoints — so the owning shard finds exactly the transitions
//! a shard hosting everyone finds, and exactly-once emission plus the
//! `(time, a, b)` merge reproduces the order.
//!
//! # Sizing K
//!
//! Each extra shard adds a halo of doubly-hosted nodes, so K should
//! track physical cores, not go beyond them: `ShardConfig::default()`
//! (`shards: 0`) resolves K to the available parallelism. The halo is
//! not thin: a reach is the *hull* of the owned extents, so one
//! cross-town rider makes its shard host most of the city for that
//! epoch. On the 10 k-node city of `BENCH_scale.json` the shards
//! together host 1.5× the population per epoch at K = 2 and 2.4× at
//! K = 4 (`halo/duplication_k*`, from
//! [`ShardedContactEngine::hosted_totals`]) — work that is repeated,
//! not shared, and the reason two shards on two cores do not beat one.
//! Longer epochs amortize barrier cost but widen extents (more halo);
//! the default of 32 ticks suits walking/driving speeds at city scale.

use crate::runner::run_replicas;
use crate::tick::{EpochCtx, Shard};
use sos_sim::mobility::soa::TrajectorySet;
use sos_sim::mobility::trace::Trajectory;
use sos_sim::world::ContactEvent;
use sos_sim::{EncounterSource, Point, SimDuration, SimTime};
use std::cmp::Ordering;

/// The longest epoch the kernel steps in one go, in ticks. The wake
/// calendar holds one list head per tick of an epoch; capping it keeps
/// "one epoch for the whole window" (`epoch_ticks: u64::MAX`) bounded in
/// memory for any tick. Streams do not depend on epoch length.
const MAX_EPOCH_TICKS: u64 = 1 << 20;

/// Sharding parameters.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of shards (vertical strips); `0` = one per available
    /// core.
    pub shards: usize,
    /// Epoch length in discovery ticks (at least 1). Longer epochs
    /// amortize barrier cost; shorter ones shrink the halo.
    pub epoch_ticks: u64,
    /// Worker threads for the parallel phase; `0` = one per core.
    pub threads: usize,
}

impl ShardConfig {
    /// One shard, one thread and one epoch spanning the whole window:
    /// the single tick loop, and the configuration a caller that wants
    /// no parallelism inside one world (a sweep that already fans out
    /// across replicas) asks for.
    pub const SINGLE: ShardConfig = ShardConfig {
        shards: 1,
        epoch_ticks: u64::MAX,
        threads: 1,
    };
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 0,
            epoch_ticks: 32,
            threads: 0,
        }
    }
}

/// The sharded, epoch-barrier contact source.
///
/// Produces a contact stream byte-identical to the naive
/// [`World`](sos_sim::World) scan for the same trajectories, range, and
/// tick — for any shard count, epoch length and thread count.
#[derive(Clone, Debug)]
pub struct ShardedContactEngine {
    set: TrajectorySet,
    range_m: f64,
    tick: SimDuration,
    config: ShardConfig,
}

impl ShardedContactEngine {
    /// Creates an engine over struct-of-arrays trajectories.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty, `range_m` is not positive, `tick` is
    /// zero, or `config.epoch_ticks` is zero — the same constructor
    /// contract as [`sos_sim::World::new`].
    pub fn new(
        set: TrajectorySet,
        range_m: f64,
        tick: SimDuration,
        config: ShardConfig,
    ) -> ShardedContactEngine {
        assert!(set.node_count() > 0, "engine needs nodes");
        assert!(range_m > 0.0, "range must be positive");
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        assert!(config.epoch_ticks > 0, "epochs must be at least one tick");
        ShardedContactEngine {
            set,
            range_m,
            tick,
            config,
        }
    }

    /// Convenience constructor from per-node [`Trajectory`] values.
    pub fn from_trajectories(
        trajectories: &[Trajectory],
        range_m: f64,
        tick: SimDuration,
        config: ShardConfig,
    ) -> ShardedContactEngine {
        ShardedContactEngine::new(
            TrajectorySet::from_trajectories(trajectories),
            range_m,
            tick,
            config,
        )
    }

    /// The resolved shard count (`config.shards`, or one per available
    /// core when 0).
    pub fn shards(&self) -> usize {
        if self.config.shards > 0 {
            self.config.shards
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Streams the contact events of `[start, end]` epoch by epoch.
    ///
    /// `f` is called once per epoch with that epoch's merged, globally
    /// ordered slice of the stream; the concatenation over all epochs
    /// is byte-identical to the naive scan's `encounter_events(start,
    /// end)`. Use this instead of [`EncounterSource::encounter_events`]
    /// when the full stream would not fit in memory (a 1M-node day is
    /// tens of millions of events).
    ///
    /// The slice is valid for the call only: with one shard it *is*
    /// that shard's output buffer (nothing is copied or re-sorted), and
    /// the next epoch overwrites it.
    pub fn for_each_epoch(&self, start: SimTime, end: SimTime, mut f: impl FnMut(&[ContactEvent])) {
        let _span = sos_obs::profile::span("engine/sharded_contact_events");
        let n = self.set.node_count();
        let k = self.shards();

        // Stored positions at the current epoch boundary. A node's
        // position is constant between its wakes, so at every tick
        // boundary the stored positions equal the sampled ones, and
        // carrying them across epochs (from the workers' write-backs)
        // loses nothing.
        let mut positions: Vec<Point> = (0..n).map(|i| self.set.position_at(i, start)).collect();
        // Global open-contact adjacency: unordered partner lists.
        let mut open: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut owner = vec![0u32; n];
        let mut shards: Vec<Shard> = (0..k).map(|_| Shard::new(self.range_m)).collect();
        if k == 1 {
            // One shard owns and hosts everything, every epoch.
            shards[0].host((0..n as u32).collect());
        }
        let mut merged: Vec<ContactEvent> = Vec::new();

        for (epoch_start, epoch_end) in self.epochs(start, end) {
            // -- Partition: owners, extents, reaches, hosted sets. --
            // Spans live on this (caller) thread: the profiler
            // aggregates thread-locally, so worker-side spans would be
            // lost. The partition span therefore also covers dispatch
            // setup; the step span covers the parallel workers
            // wall-clock (what the caller actually waits on).
            let partition_span = sos_obs::profile::span("engine/epoch_partition");
            if k > 1 {
                let hosted = self.partition(k, &positions, epoch_start, epoch_end, &mut owner);
                for (shard, hosted) in shards.iter_mut().zip(hosted) {
                    shard.host(hosted);
                }
            }
            drop(partition_span);

            // -- Parallel step. --
            let step_span = sos_obs::profile::span("engine/epoch_step");
            let ctx = EpochCtx {
                set: &self.set,
                positions: &positions,
                open: &open,
                owner: &owner,
                range_m: self.range_m,
                tick: self.tick,
                epoch_start,
                epoch_end,
                initial: epoch_start == start,
                handoff: k > 1,
            };
            shards = run_replicas(shards, self.config.threads, |id, mut shard| {
                shard.run_epoch(&ctx, id as u32);
                shard
            });
            drop(step_span);

            // -- Barrier: deterministic merge, then handoff state. --
            let merge_span = sos_obs::profile::span("engine/epoch_merge");
            if k > 1 {
                merge_runs(&shards, &mut merged);
            }
            drop(merge_span);
            f(if k > 1 { &merged } else { &shards[0].events });
            if k > 1 && epoch_end < end {
                let _span = sos_obs::profile::span("engine/epoch_handoff");
                for (id, shard) in shards.iter_mut().enumerate() {
                    shard.write_back(id as u32, &owner, &mut positions, &mut open);
                }
            }
        }
    }

    /// The number of nodes hosted per epoch of `[start, end]`, summed
    /// over the shards: `n` per epoch with one shard, more by the halo
    /// of doubly-hosted nodes with several (module docs, "Sizing K").
    pub fn hosted_totals(&self, start: SimTime, end: SimTime) -> Vec<usize> {
        let n = self.set.node_count();
        let mut owner = vec![0u32; n];
        let hosted_total = |(t0, t1): (SimTime, SimTime)| {
            let positions: Vec<Point> = (0..n).map(|i| self.set.position_at(i, t0)).collect();
            let hosted = self.partition(self.shards(), &positions, t0, t1, &mut owner);
            hosted.iter().map(Vec::len).sum()
        };
        self.epochs(start, end).map(hosted_total).collect()
    }

    /// The epochs of `[start, end]` (none when it is empty): each
    /// `epoch_ticks` ticks long, saturating at the clock's end, the last
    /// one cut at the window's.
    fn epochs(&self, start: SimTime, end: SimTime) -> impl Iterator<Item = (SimTime, SimTime)> {
        let ticks = self.config.epoch_ticks.min(MAX_EPOCH_TICKS);
        let len = self.tick.as_millis().saturating_mul(ticks);
        let mut next = (start <= end).then_some(start);
        std::iter::from_fn(move || {
            let t0 = next?;
            let t1 = SimTime::from_millis(t0.as_millis().saturating_add(len)).min(end);
            next = (t1 < end).then_some(t1);
            Some((t0, t1))
        })
    }

    /// The partition step for the epoch `[t0, t1]`: every node's owner
    /// shard into `owner`, and every shard's hosted set (ascending).
    fn partition(
        &self,
        k: usize,
        positions: &[Point],
        t0: SimTime,
        t1: SimTime,
        owner: &mut [u32],
    ) -> Vec<Vec<u32>> {
        let boundaries = owner_boundaries(positions, k);
        for (o, p) in owner.iter_mut().zip(positions) {
            *o = owner_of(&boundaries, p.x);
        }
        let extents = self.parallel_extents(k, t0, t1);
        let mut reach = vec![(f64::INFINITY, f64::NEG_INFINITY); k];
        for (&(lo, hi), &o) in extents.iter().zip(owner.iter()) {
            let r = &mut reach[o as usize];
            r.0 = r.0.min(lo);
            r.1 = r.1.max(hi);
        }
        let hosted_by = |r: &(f64, f64)| {
            let (lo, hi) = (r.0 - self.range_m, r.1 + self.range_m);
            let inside = extents.iter().zip(0u32..);
            inside
                .filter_map(|(e, i)| (e.0 <= hi && e.1 >= lo).then_some(i))
                .collect()
        };
        reach.iter().map(hosted_by).collect()
    }

    /// Per-node x-extents over the epoch window, computed in parallel
    /// chunks.
    fn parallel_extents(&self, k: usize, t0: SimTime, t1: SimTime) -> Vec<(f64, f64)> {
        let n = self.set.node_count();
        let chunk = n.div_ceil(k.max(1));
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(chunk.max(1))
            .map(|lo| (lo, (lo + chunk).min(n)))
            .collect();
        run_replicas(ranges, self.config.threads, |_, (lo, hi)| {
            (lo..hi)
                .map(|i| self.set.extent_x(i, t0, t1))
                .collect::<Vec<(f64, f64)>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

impl EncounterSource for ShardedContactEngine {
    fn node_count(&self) -> usize {
        self.set.node_count()
    }

    fn encounter_events(&self, start: SimTime, end: SimTime) -> Vec<ContactEvent> {
        let mut events = Vec::new();
        self.for_each_epoch(start, end, |epoch| events.extend_from_slice(epoch));
        events
    }

    fn node_position(&self, node: usize, t: SimTime) -> Option<Point> {
        Some(self.set.position_at(node, t))
    }

    fn range_hint_m(&self) -> Option<f64> {
        Some(self.range_m)
    }
}

/// Strip boundaries from sampled x-quantiles of the current positions.
/// Sampling (stride so at most ~4096 points are sorted) keeps the
/// partition adaptive to the population drift at negligible cost, and
/// `total_cmp` keeps it total — and therefore deterministic — even for
/// pathological coordinates.
fn owner_boundaries(positions: &[Point], k: usize) -> Vec<f64> {
    let stride = (positions.len() / 4096).max(1);
    let mut xs: Vec<f64> = positions.iter().step_by(stride).map(|p| p.x).collect();
    xs.sort_unstable_by(f64::total_cmp);
    (1..k).map(|s| xs[s * xs.len() / k]).collect()
}

/// The owner shard of a node at `x`: the number of strip boundaries at
/// or below it.
fn owner_of(boundaries: &[f64], x: f64) -> u32 {
    boundaries.partition_point(|b| b.total_cmp(&x) != Ordering::Greater) as u32
}

/// Merges the shards' event runs — each already in `(time, a, b)`
/// order, every key unique (one transition per pair per tick, emitted
/// by exactly one shard) — into one run in that order.
fn merge_runs(shards: &[Shard], merged: &mut Vec<ContactEvent>) {
    merged.clear();
    let mut heads = vec![0usize; shards.len()];
    loop {
        let next = (shards.iter().zip(&heads).enumerate())
            .filter_map(|(s, (shard, &at))| shard.events.get(at).map(|e| ((e.time, e.a, e.b), s)))
            .min();
        let Some((_, s)) = next else { return };
        merged.push(shards[s].events[heads[s]]);
        heads[s] += 1;
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
            .expect("valid"),
            Trajectory::new(vec![
                (SimTime::ZERO, Point::new(1000.0, 0.0)),
                (SimTime::from_secs(1000), Point::new(0.0, 0.0)),
            ])
            .expect("valid"),
            Trajectory::stationary(Point::new(500.0, 10.0)),
        ]
    }

    fn config(shards: usize, epoch_ticks: u64) -> ShardConfig {
        ShardConfig {
            shards,
            epoch_ticks,
            threads: 1,
        }
    }

    /// The single tick loop ([`ShardConfig::SINGLE`]) at a 60 m range.
    fn single(trajectories: &[Trajectory], tick: SimDuration) -> ShardedContactEngine {
        ShardedContactEngine::from_trajectories(trajectories, 60.0, tick, ShardConfig::SINGLE)
    }

    #[test]
    fn matches_single_loop_kernel_exactly() {
        let tick = SimDuration::from_secs(10);
        let end = SimTime::from_secs(1000);
        let expected = single(&crossing(), tick).encounter_events(SimTime::ZERO, end);
        assert!(!expected.is_empty());
        for shards in [1, 2, 4] {
            for epoch_ticks in [1, 7, 1000] {
                let sharded = ShardedContactEngine::from_trajectories(
                    &crossing(),
                    60.0,
                    tick,
                    config(shards, epoch_ticks),
                );
                assert_eq!(
                    sharded.encounter_events(SimTime::ZERO, end),
                    expected,
                    "shards {shards}, epoch_ticks {epoch_ticks}"
                );
            }
        }
    }

    #[test]
    fn epoch_streaming_concatenates_to_the_full_stream() {
        let tick = SimDuration::from_secs(10);
        let end = SimTime::from_secs(1000);
        let engine =
            ShardedContactEngine::from_trajectories(&crossing(), 60.0, tick, config(2, 16));
        let full = engine.encounter_events(SimTime::ZERO, end);
        let mut streamed = Vec::new();
        let mut epochs = 0;
        engine.for_each_epoch(SimTime::ZERO, end, |chunk| {
            streamed.extend_from_slice(chunk);
            epochs += 1;
        });
        assert_eq!(streamed, full);
        assert!(epochs > 1, "window should span multiple epochs");
    }

    #[test]
    fn owner_partition_is_total_and_ordered() {
        let positions: Vec<Point> = (0..100).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
        let boundaries = owner_boundaries(&positions, 4);
        assert_eq!(boundaries.len(), 3);
        let owners: Vec<u32> = positions
            .iter()
            .map(|p| owner_of(&boundaries, p.x))
            .collect();
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        assert_eq!(owners, sorted, "owners are monotone in x");
        assert!(owners.iter().all(|&s| s < 4));
        assert_eq!(owner_boundaries(&positions, 1), Vec::<f64>::new());
    }

    #[test]
    fn crossing_pair_matches_naive_scan() {
        let tick = SimDuration::from_secs(10);
        let end = SimTime::from_secs(1000);
        let pair = &crossing()[..2];
        let world = World::new(pair.to_vec(), 60.0, tick);
        assert_eq!(
            single(pair, tick).encounter_events(SimTime::ZERO, end),
            world.encounter_events(SimTime::ZERO, end)
        );
    }

    #[test]
    fn stationary_pair_contact_spans_whole_window() {
        let engine = single(
            &[
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::stationary(Point::new(30.0, 0.0)),
            ],
            SimDuration::from_secs(30),
        );
        let ivs = engine.encounter_intervals(SimTime::ZERO, SimTime::from_hours(1));
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
        let events = engine.encounter_events(SimTime::ZERO, SimTime::from_hours(1));
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn distant_mover_never_contacts() {
        let engine = single(
            &[
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::new(vec![
                    (SimTime::ZERO, Point::new(5000.0, 0.0)),
                    (SimTime::from_secs(100), Point::new(5000.0, 4000.0)),
                ])
                .expect("valid"),
            ],
            SimDuration::from_secs(10),
        );
        assert!(engine
            .encounter_events(SimTime::ZERO, SimTime::from_secs(200))
            .is_empty());
    }

    #[test]
    fn world_parameters_are_kept() {
        // Built from a world's trajectories, range and tick, the single
        // loop reports the world's range, population and positions, and
        // its stream is the world's.
        let tick = SimDuration::from_secs(10);
        let end = SimTime::from_secs(1000);
        let pair = &crossing()[..2];
        let world = World::new(pair.to_vec(), 60.0, tick);
        let engine = single(pair, tick);
        assert_eq!(engine.range_hint_m(), Some(60.0));
        assert_eq!(engine.range_hint_m(), world.range_hint_m());
        assert_eq!(engine.node_count(), world.node_count());
        for secs in [0, 250, 500, 1000] {
            let t = SimTime::from_secs(secs);
            for node in 0..2 {
                assert_eq!(engine.node_position(node, t), world.node_position(node, t));
            }
        }
        assert_eq!(
            engine.encounter_events(SimTime::ZERO, end),
            world.encounter_events(SimTime::ZERO, end)
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
        .expect("valid");
        let anchor = Trajectory::stationary(Point::new(0.0, 0.0));
        for tick_secs in [7, 10, 30] {
            let tick = SimDuration::from_secs(tick_secs);
            let end = SimTime::from_secs(400);
            let trajs = vec![anchor.clone(), teleporter.clone()];
            let world = World::new(trajs.clone(), 60.0, tick);
            let naive = world.encounter_events(SimTime::ZERO, end);
            assert_eq!(
                single(&trajs, tick).encounter_events(SimTime::ZERO, end),
                naive,
                "tick {tick_secs}s"
            );
            assert!(!naive.is_empty(), "teleport should create a contact");
        }
    }

    #[test]
    fn empty_window_is_empty() {
        let engine = single(&crossing()[..2], SimDuration::from_secs(10));
        assert!(engine
            .encounter_events(SimTime::from_secs(10), SimTime::from_secs(5))
            .is_empty());
    }
}
