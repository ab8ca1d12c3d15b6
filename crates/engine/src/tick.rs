//! The contact kernel's tick loop — the only one in the crate.
//!
//! A [`Shard`] steps a set of *hosted* nodes through one epoch window
//! after another and emits the contact transitions of the pairs it
//! owns. [`ShardedContactEngine`](crate::ShardedContactEngine) runs K
//! of these per epoch; with
//! [`ShardConfig::SINGLE`](crate::ShardConfig::SINGLE) it runs one over
//! one whole-window epoch.
//!
//! Two mechanisms make a tick cheap:
//!
//! 1. **A wake calendar.** A node schedules its own next position
//!    sample: the next tick while it moves, the first tick at or after
//!    the end of a waiting span, never once its trajectory has ended
//!    (the paper's population is stationary 5–8 h/day, so most
//!    node-ticks cost nothing). Wakes are tick-aligned and a node has at
//!    most one pending, so the calendar is one list head per tick of the
//!    epoch and one link per node, and a wake beyond the epoch simply
//!    waits for the epoch it falls in; a wake is one waypoint search
//!    ([`TrajectorySet::position_and_next`]) that yields both the
//!    position and the segment the next wake is derived from.
//! 2. **A mover-centric pair check.** A node whose sampled position
//!    changed is a *mover*. Each mover stamps its open partners into a
//!    `u32` array (so "was this pair up?" is one load), tests its open
//!    list for breaks and the 3×3 cell block around it
//!    ([`UniformGrid`], cell = radio range) for new contacts.
//!
//! # Why the check is exhaustive, and each transition found once
//!
//! Contact state changes only on a tick where an endpoint moved. A pair
//! is examined from its lowest-indexed *mover*: a mover skips a partner
//! that also moved and has the lower index. From that mover, an **Up**
//! needs the pair not to be open — so it is not in the open list, and
//! an in-range partner is always inside the 3×3 block, in exactly one
//! bucket; a **Down** needs the pair to be open and out of range — so
//! it is found in the open list (the partner may have left the block
//! entirely), and the block pass skips it by its stamp. The open lists
//! are not touched until every mover of the tick has been examined, so
//! every test sees the state before the tick.
//!
//! Order comes from one place: the tick's *transitions* are sorted by
//! `(a, b)` before they are applied and emitted, and ticks advance
//! monotonically. Bucket order, open-list order, wake order and the
//! grid's hash never reach the stream.

use crate::grid::UniformGrid;
use sos_sim::mobility::soa::TrajectorySet;
use sos_sim::world::{ContactEvent, ContactPhase};
use sos_sim::{Point, SimDuration, SimTime};

/// "Not hosted" / "end of list".
const NONE: u32 = u32::MAX;

/// Read-only state shared by all shard workers of one epoch.
pub(crate) struct EpochCtx<'a> {
    pub set: &'a TrajectorySet,
    /// Every node's position at `epoch_start`.
    pub positions: &'a [Point],
    /// Every node's open partners at `epoch_start`, unordered.
    pub open: &'a [Vec<u32>],
    /// Every node's owner shard for this epoch.
    pub owner: &'a [u32],
    pub range_m: f64,
    pub tick: SimDuration,
    /// On the global tick grid (anchored at the window start).
    pub epoch_start: SimTime,
    pub epoch_end: SimTime,
    /// Whether this epoch opens the window (run the full scan at
    /// `epoch_start`).
    pub initial: bool,
    /// Whether a shard may be rebuilt from the global state after this
    /// epoch, so changes must be tracked for [`Shard::write_back`]:
    /// always, unless there is one shard.
    pub handoff: bool,
}

/// One shard: the nodes it hosts, what it emitted last epoch, and its
/// local state. All indices below `hosted` are *local* (positions in
/// `hosted`, which is ascending, so local order is global order).
///
/// The local state — positions, grid, open lists, next wakes — is exact
/// for every hosted node and every pair of hosted nodes when an epoch
/// ends (a transition depends on the two trajectories alone), so it is
/// rebuilt from the global state only when the hosted set changes.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Global ids of the hosted nodes, ascending.
    hosted: Vec<u32>,
    /// Whether the local state is built for `hosted`.
    built: bool,
    /// Emitted (owned-pair) events of the last epoch, in `(time, a, b)`
    /// order.
    pub events: Vec<ContactEvent>,
    /// Global id → local index, `NONE` outside a rebuild.
    local_of: Vec<u32>,
    pos: Vec<Point>,
    grid: UniformGrid,
    /// Open partners per node, unordered.
    open: Vec<Vec<u32>>,
    /// Nodes whose position or open list changed since the last
    /// write-back.
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// `stamps[b] == token` ⇔ `b` is an open partner of the mover being
    /// examined.
    stamps: Vec<u32>,
    token: u32,
    is_mover: Vec<bool>,
    movers: Vec<u32>,
    near: Vec<u32>,
    /// This tick's transitions: `(a << 32 | b, distance)`, `a < b`.
    transitions: Vec<(u64, f64)>,
    /// Each node's next wake (ms; `u64::MAX` = never), and the epoch's
    /// calendar over them: list head per tick, link per node.
    wake_at: Vec<u64>,
    wake_head: Vec<u32>,
    wake_next: Vec<u32>,
}

impl Shard {
    pub fn new(range_m: f64) -> Shard {
        Shard {
            hosted: Vec::new(),
            built: false,
            events: Vec::new(),
            local_of: Vec::new(),
            pos: Vec::new(),
            grid: UniformGrid::new(0, range_m),
            open: Vec::new(),
            dirty: Vec::new(),
            dirty_list: Vec::new(),
            stamps: Vec::new(),
            token: 0,
            is_mover: Vec::new(),
            movers: Vec::new(),
            near: Vec::new(),
            transitions: Vec::new(),
            wake_at: Vec::new(),
            wake_head: Vec::new(),
            wake_next: Vec::new(),
        }
    }

    /// Sets the hosted nodes (global ids, ascending) for the next
    /// epoch.
    pub fn host(&mut self, hosted: Vec<u32>) {
        if hosted != self.hosted {
            self.hosted = hosted;
            self.built = false;
        }
    }

    /// Builds the local state for `hosted` from the global state at the
    /// epoch start: O(hosted + their open degree).
    fn build(&mut self, ctx: &EpochCtx<'_>) {
        let h = self.hosted.len();
        self.local_of.resize(ctx.positions.len(), NONE);
        self.pos.clear();
        self.grid.reset(h);
        for (l, &g) in self.hosted.iter().enumerate() {
            let p = ctx.positions[g as usize];
            self.local_of[g as usize] = l as u32;
            self.pos.push(p);
            self.grid.update(l as u32, p);
        }
        // Open pairs with an unhosted endpoint cannot be owned here, so
        // dropping them is exact.
        self.open.resize_with(h, Vec::new);
        for (row, &g) in self.open.iter_mut().zip(&self.hosted) {
            row.clear();
            let partners = ctx.open[g as usize].iter();
            row.extend(
                partners
                    .map(|&b| self.local_of[b as usize])
                    .filter(|&b| b != NONE),
            );
        }
        for &g in &self.hosted {
            self.local_of[g as usize] = NONE;
        }
        // Between epochs nothing is dirty and nobody is a mover, and a
        // stale stamp is an old token: resizing is enough.
        debug_assert!(self.dirty_list.is_empty() && self.movers.is_empty());
        self.dirty.resize(h, false);
        self.is_mover.resize(h, false);
        self.stamps.resize(h, 0);
        self.wake_at.resize(h, u64::MAX);
        self.wake_next.resize(h, NONE);
        for l in 0..h {
            let times = ctx.set.times(self.hosted[l] as usize);
            let next = times.partition_point(|wt| *wt <= ctx.epoch_start);
            self.schedule(ctx, l as u32, next, ctx.epoch_start);
        }
        self.built = true;
    }

    /// Steps the hosted nodes through `(epoch_start, epoch_end]` (and
    /// the scan at `epoch_start` itself when the epoch opens the
    /// window), leaving the transitions of the pairs shard `id` owns in
    /// `self.events`.
    pub fn run_epoch(&mut self, ctx: &EpochCtx<'_>, id: u32) {
        self.events.clear();
        if !self.built {
            self.build(ctx);
        }
        let h = self.hosted.len() as u32;
        if ctx.initial {
            // Every node is new, so every in-range pair comes up.
            self.movers.extend(0..h);
            self.is_mover.fill(true);
            self.check_movers(ctx, id, ctx.epoch_start);
        }
        let (start, tick) = (ctx.epoch_start.as_millis(), ctx.tick.as_millis());
        let ticks = (ctx.epoch_end.as_millis() - start) / tick;
        self.wake_head.clear();
        self.wake_head.resize(ticks as usize + 1, NONE);
        for l in 0..h {
            self.enqueue(ctx, l);
        }
        for at in 1..=ticks {
            let now = SimTime::from_millis(start + at * tick);
            let mut l = std::mem::replace(&mut self.wake_head[at as usize], NONE);
            while l != NONE {
                let after = self.wake_next[l as usize];
                let g = self.hosted[l as usize] as usize;
                let (p, next) = ctx.set.position_and_next(g, now);
                if p != self.pos[l as usize] {
                    self.pos[l as usize] = p;
                    self.grid.update(l, p);
                    self.mark_dirty(ctx, l);
                    self.is_mover[l as usize] = true;
                    self.movers.push(l);
                }
                self.schedule(ctx, l, next, now);
                self.enqueue(ctx, l);
                l = after;
            }
            if !self.movers.is_empty() {
                self.check_movers(ctx, id, now);
            }
        }
    }

    /// The handoff write-back: copies the position and open list of
    /// every node shard `id` owns that changed this epoch into the
    /// global state. The owner hosts every node that can touch an owned
    /// node during the epoch, so its list is the whole list.
    pub fn write_back(
        &mut self,
        id: u32,
        owner: &[u32],
        positions: &mut [Point],
        open: &mut [Vec<u32>],
    ) {
        for l in self.dirty_list.drain(..) {
            self.dirty[l as usize] = false;
            let g = self.hosted[l as usize] as usize;
            if owner[g] == id {
                positions[g] = self.pos[l as usize];
                open[g].clear();
                let partners = self.open[l as usize].iter();
                open[g].extend(partners.map(|&b| self.hosted[b as usize]));
            }
        }
    }

    fn mark_dirty(&mut self, ctx: &EpochCtx<'_>, l: u32) {
        if ctx.handoff && !std::mem::replace(&mut self.dirty[l as usize], true) {
            self.dirty_list.push(l);
        }
    }

    /// The one next-wake rule. Node `l` was sampled at the tick `now`
    /// and `next` is its first waypoint strictly after `now`: it wakes
    /// at the next tick while it is moving, at the first tick at or
    /// after `next` while its position is constant until then (before
    /// its first waypoint, or on a waiting span — *at*, because
    /// equal-timestamp waypoints make the position jump on the boundary
    /// tick itself), and never once parked at its last waypoint.
    fn schedule(&mut self, ctx: &EpochCtx<'_>, l: u32, next: usize, now: SimTime) {
        let g = self.hosted[l as usize] as usize;
        let times = ctx.set.times(g);
        let tick = ctx.tick.as_millis();
        self.wake_at[l as usize] = if next == times.len() {
            u64::MAX
        } else if next == 0 || ctx.set.point(g, next - 1) == ctx.set.point(g, next) {
            // `now` is on the tick grid, so it can anchor it.
            let ticks = (times[next].as_millis() - now.as_millis()).div_ceil(tick);
            now.as_millis().saturating_add(ticks.saturating_mul(tick))
        } else {
            now.as_millis().saturating_add(tick)
        };
    }

    /// Puts node `l` on this epoch's calendar if its wake falls inside
    /// the epoch; a later wake waits in `wake_at` for its own epoch.
    fn enqueue(&mut self, ctx: &EpochCtx<'_>, l: u32) {
        let wake = self.wake_at[l as usize];
        if wake <= ctx.epoch_end.as_millis() {
            let at = (wake - ctx.epoch_start.as_millis()) / ctx.tick.as_millis();
            self.wake_next[l as usize] = std::mem::replace(&mut self.wake_head[at as usize], l);
        }
    }

    /// Examines this tick's movers against the state before the tick,
    /// then sorts, applies and emits the transitions (module docs).
    fn check_movers(&mut self, ctx: &EpochCtx<'_>, id: u32, now: SimTime) {
        self.transitions.clear();
        for &a in &self.movers {
            self.token = self.token.wrapping_add(1);
            if self.token == 0 {
                self.stamps.fill(0);
                self.token = 1;
            }
            self.near.clear();
            self.grid
                .neighbors_into(self.pos[a as usize], &mut self.near);
            let (pos, is_mover, transitions) = (&self.pos, &self.is_mover, &mut self.transitions);
            let mut test = |b: u32, was_up: bool| {
                if b < a && is_mover[b as usize] {
                    return; // examined from `b`
                }
                let (lo, hi) = (a.min(b), a.max(b));
                let d = pos[lo as usize].distance(&pos[hi as usize]);
                if (d <= ctx.range_m) != was_up {
                    transitions.push((u64::from(lo) << 32 | u64::from(hi), d));
                }
            };
            for &b in &self.open[a as usize] {
                self.stamps[b as usize] = self.token;
                test(b, true);
            }
            for &b in &self.near {
                if b != a && self.stamps[b as usize] != self.token {
                    test(b, false);
                }
            }
        }
        for a in self.movers.drain(..) {
            self.is_mover[a as usize] = false;
        }
        self.transitions.sort_unstable_by_key(|t| t.0);
        for i in 0..self.transitions.len() {
            let (pair, d) = self.transitions[i];
            let (a, b) = ((pair >> 32) as u32, pair as u32);
            let up = d <= ctx.range_m;
            for (x, y) in [(a, b), (b, a)] {
                let row = &mut self.open[x as usize];
                if up {
                    row.push(y);
                } else {
                    let at = row.iter().position(|&p| p == y);
                    row.swap_remove(at.expect("a pair that goes down is open"));
                }
                self.mark_dirty(ctx, x);
            }
            let (ga, gb) = (self.hosted[a as usize], self.hosted[b as usize]);
            if ctx.owner[ga as usize] == id {
                self.events.push(ContactEvent {
                    time: now,
                    a: ga as usize,
                    b: gb as usize,
                    phase: if up {
                        ContactPhase::Up
                    } else {
                        ContactPhase::Down
                    },
                    distance_m: d,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Nodes that never rest inside two adjacent 60 m cells.
    fn crowd(nodes: usize, end_secs: u64) -> TrajectorySet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut set = TrajectorySet::new();
        for _ in 0..nodes {
            let mut t = 0u64;
            let mut points = Vec::new();
            while t <= end_secs {
                let p = Point::new(rng.gen_range(0.0..120.0), rng.gen_range(0.0..60.0));
                points.push((SimTime::from_secs(t), p));
                t += rng.gen_range(15u64..50);
            }
            set.push_waypoints(points).unwrap();
        }
        set
    }

    /// What every open list of `shard` must be at `now`: the hosted
    /// nodes in range, each once, in any order.
    fn assert_rows_exact(shard: &Shard, set: &TrajectorySet, now: SimTime, range_m: f64) {
        for (l, &g) in shard.hosted.iter().enumerate() {
            let p = set.position_at(g as usize, now);
            assert_eq!(shard.pos[l], p, "node {g} at {now:?}");
            let mut row = shard.open[l].clone();
            row.sort_unstable();
            let expected: Vec<u32> = (0..shard.hosted.len() as u32)
                .filter(|&m| m as usize != l)
                .filter(|&m| {
                    let q = set.position_at(shard.hosted[m as usize] as usize, now);
                    p.distance(&q) <= range_m
                })
                .collect();
            assert_eq!(row, expected, "open list of node {g} at {now:?}");
        }
    }

    #[test]
    fn local_and_global_state_are_exact_at_every_epoch_boundary() {
        // Shard 0 owns and hosts everyone; shard 1 hosts a subset it
        // does not own (so it writes nothing back) and is re-hosted
        // half-way, which rebuilds it from what shard 0 wrote back.
        let (n, range_m, tick) = (30usize, 60.0, SimDuration::from_secs(10));
        let set = crowd(n, 700);
        let mut positions: Vec<Point> = (0..n).map(|i| set.position_at(i, SimTime::ZERO)).collect();
        let mut open: Vec<Vec<u32>> = vec![Vec::new(); n];
        let owner = vec![0u32; n];
        let mut shards = [Shard::new(range_m), Shard::new(range_m)];
        shards[0].host((0..n as u32).collect());
        shards[1].host((0..n as u32).step_by(2).collect());
        for epoch in 0..10u64 {
            if epoch == 5 {
                shards[1].host((0..n as u32).filter(|g| g % 3 != 0).collect());
            }
            let (epoch_start, epoch_end) = (
                SimTime::from_secs(epoch * 70),
                SimTime::from_secs(epoch * 70 + 70),
            );
            let ctx = EpochCtx {
                set: &set,
                positions: &positions,
                open: &open,
                owner: &owner,
                range_m,
                tick,
                epoch_start,
                epoch_end,
                initial: epoch == 0,
                handoff: true,
            };
            for (id, shard) in shards.iter_mut().enumerate() {
                // Local state is rebuilt when the hosted set changed,
                // and only then.
                assert_eq!(shard.built, epoch != 0 && (epoch, id) != (5, 1));
                shard.run_epoch(&ctx, id as u32);
                assert_rows_exact(shard, &set, epoch_end, range_m);
            }
            assert!(!shards[0].events.is_empty(), "epoch {epoch} is quiet");
            assert!(shards[1].events.is_empty(), "shard 1 owns no pair");
            for (id, shard) in shards.iter_mut().enumerate() {
                shard.write_back(id as u32, &owner, &mut positions, &mut open);
            }
            // The global state is what a shard hosting everyone holds,
            // in global ids.
            for g in 0..n {
                assert_eq!(positions[g], shards[0].pos[g]);
                let (mut global, mut local) = (open[g].clone(), shards[0].open[g].clone());
                global.sort_unstable();
                local.sort_unstable();
                assert_eq!(global, local, "node {g} after epoch {epoch}");
            }
        }
    }
}
