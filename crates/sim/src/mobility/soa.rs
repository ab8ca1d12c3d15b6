//! Struct-of-arrays trajectory storage for population-scale worlds.
//!
//! [`Trajectory`] keeps one `Vec` per node, which is fine for the
//! paper's ten phones but means a million-node city pays a million
//! heap allocations and a pointer chase per position lookup.
//! [`TrajectorySet`] flattens every node's waypoints into four shared
//! arrays (offsets, times, xs, ys) so a movement step walks memory
//! linearly — this is the node-state layout the sharded contact kernel
//! (`sos-engine`) is built on.
//!
//! `position_at` intentionally mirrors [`Trajectory::position_at`]
//! operation-for-operation: the sharded kernel's byte-identity contract
//! with the single-loop kernel depends on both producing bit-equal
//! positions for the same waypoints.

use crate::error::SimError;
use crate::geo::Point;
use crate::mobility::trace::Trajectory;
use crate::time::SimTime;

/// A set of piecewise-linear trajectories in struct-of-arrays layout.
///
/// Node `n`'s waypoints live at indices `starts[n] .. starts[n + 1]` of
/// the flat `times` / `xs` / `ys` arrays.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrajectorySet {
    starts: Vec<usize>,
    times: Vec<SimTime>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl TrajectorySet {
    /// Creates an empty set.
    pub fn new() -> TrajectorySet {
        TrajectorySet::default()
    }

    /// Appends a node from raw waypoints, returning its index.
    ///
    /// Validates like [`Trajectory::new`]: returns
    /// [`SimError::EmptyTrajectory`] for an empty list and
    /// [`SimError::UnorderedWaypoints`] when a timestamp moves
    /// backwards. The set is unchanged on error.
    pub fn push_waypoints(
        &mut self,
        waypoints: impl IntoIterator<Item = (SimTime, Point)>,
    ) -> Result<usize, SimError> {
        let base = self.times.len();
        for (t, p) in waypoints {
            if let Some(prev) = self.times.last() {
                if self.times.len() > base && *prev > t {
                    let index = self.times.len() - base;
                    self.times.truncate(base);
                    self.xs.truncate(base);
                    self.ys.truncate(base);
                    return Err(SimError::UnorderedWaypoints { index });
                }
            }
            self.times.push(t);
            self.xs.push(p.x);
            self.ys.push(p.y);
        }
        if self.times.len() == base {
            return Err(SimError::EmptyTrajectory);
        }
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        self.starts.push(self.times.len());
        Ok(self.starts.len() - 2)
    }

    /// Appends an already-validated [`Trajectory`], returning its index.
    pub fn push_trajectory(&mut self, tr: &Trajectory) -> usize {
        match self.push_waypoints(tr.waypoints().iter().copied()) {
            Ok(node) => node,
            // Unreachable: a Trajectory is non-empty and ordered by
            // construction.
            Err(_) => unreachable!("Trajectory invariants guarantee valid waypoints"),
        }
    }

    /// Builds a set from a slice of validated trajectories.
    pub fn from_trajectories(trs: &[Trajectory]) -> TrajectorySet {
        let mut set = TrajectorySet::new();
        for tr in trs {
            set.push_trajectory(tr);
        }
        set
    }

    /// Converts back to per-node [`Trajectory`] values (for tooling and
    /// cross-checking against the single-loop kernel; allocates one
    /// `Vec` per node).
    pub fn to_trajectories(&self) -> Vec<Trajectory> {
        (0..self.node_count())
            .map(|n| {
                let (lo, hi) = self.span(n);
                let wps: Vec<(SimTime, Point)> = (lo..hi)
                    .map(|i| (self.times[i], Point::new(self.xs[i], self.ys[i])))
                    .collect();
                match Trajectory::new(wps) {
                    Ok(tr) => tr,
                    // Unreachable: set waypoints are validated on insert.
                    Err(_) => unreachable!("TrajectorySet stores validated waypoints"),
                }
            })
            .collect()
    }

    /// Number of nodes in the set.
    pub fn node_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Total number of stored waypoints across all nodes.
    pub fn waypoint_count(&self) -> usize {
        self.times.len()
    }

    fn span(&self, node: usize) -> (usize, usize) {
        (self.starts[node], self.starts[node + 1])
    }

    /// The waypoint timestamps of `node`.
    pub fn times(&self, node: usize) -> &[SimTime] {
        let (lo, hi) = self.span(node);
        &self.times[lo..hi]
    }

    /// The `idx`-th waypoint position of `node`.
    pub fn point(&self, node: usize, idx: usize) -> Point {
        let (lo, hi) = self.span(node);
        let i = lo + idx;
        debug_assert!(i < hi);
        Point::new(self.xs[i], self.ys[i])
    }

    /// End time of `node`'s trajectory (its last waypoint).
    pub fn end_time(&self, node: usize) -> SimTime {
        let (_, hi) = self.span(node);
        self.times[hi - 1]
    }

    /// Position of `node` at time `t` by linear interpolation.
    ///
    /// Bit-identical to [`Trajectory::position_at`] on the same
    /// waypoints (same comparisons, same `lerp` arithmetic).
    pub fn position_at(&self, node: usize, t: SimTime) -> Point {
        let (lo, hi) = self.span(node);
        let times = &self.times[lo..hi];
        if t <= times[0] {
            return Point::new(self.xs[lo], self.ys[lo]);
        }
        if t >= times[times.len() - 1] {
            return Point::new(self.xs[hi - 1], self.ys[hi - 1]);
        }
        let idx = times.partition_point(|wt| *wt <= t);
        self.interpolate(lo + idx, t)
    }

    /// [`TrajectorySet::position_at`] together with the waypoint
    /// segment it was read from: the index of `node`'s first waypoint
    /// strictly after `t` (the waypoint count once the trajectory has
    /// ended). One search serves both, so a caller that needs to know
    /// what the node does *next* (the contact kernel's wake rule) does
    /// not search the same waypoints twice.
    pub fn position_and_next(&self, node: usize, t: SimTime) -> (Point, usize) {
        let (lo, hi) = self.span(node);
        let times = &self.times[lo..hi];
        let idx = times.partition_point(|wt| *wt <= t);
        let p = if t <= times[0] {
            Point::new(self.xs[lo], self.ys[lo])
        } else if idx == times.len() {
            Point::new(self.xs[hi - 1], self.ys[hi - 1])
        } else {
            self.interpolate(lo + idx, t)
        };
        (p, idx)
    }

    /// Interpolates at `t` inside the segment ending at flat waypoint
    /// index `i` (`times[i - 1] <= t < times[i]`).
    fn interpolate(&self, i: usize, t: SimTime) -> Point {
        let (t0, t1) = (self.times[i - 1], self.times[i]);
        let p0 = Point::new(self.xs[i - 1], self.ys[i - 1]);
        let p1 = Point::new(self.xs[i], self.ys[i]);
        if t1 == t0 {
            return p1;
        }
        let frac =
            (t.as_millis() - t0.as_millis()) as f64 / (t1.as_millis() - t0.as_millis()) as f64;
        p0.lerp(&p1, frac)
    }

    /// The closed interval of x-coordinates `node` can occupy during
    /// `[t0, t1]`: the interpolated positions at both endpoints plus
    /// every waypoint inside the window. Used by the sharded kernel to
    /// decide which shards must host the node for an epoch; it may be a
    /// slight superset of the truly reachable x-range (endpoints on the
    /// window boundary are included), which is always safe.
    pub fn extent_x(&self, node: usize, t0: SimTime, t1: SimTime) -> (f64, f64) {
        let x0 = self.position_at(node, t0).x;
        let x1 = self.position_at(node, t1).x;
        let (mut lo, mut hi) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (s, e) = self.span(node);
        let times = &self.times[s..e];
        let a = times.partition_point(|wt| *wt < t0);
        let b = times.partition_point(|wt| *wt <= t1);
        for i in a..b {
            let x = self.xs[s + i];
            if x < lo {
                lo = x;
            }
            if x > hi {
                hi = x;
            }
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn tr(wps: &[(u64, f64, f64)]) -> Trajectory {
        Trajectory::new(
            wps.iter()
                .map(|&(t, x, y)| (SimTime::from_secs(t), Point::new(x, y)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn round_trips_trajectories() {
        let trs = vec![
            tr(&[(0, 0.0, 0.0), (10, 100.0, 50.0)]),
            Trajectory::stationary(Point::new(7.0, 8.0)),
            tr(&[(5, 1.0, 2.0), (5, 9.0, 9.0), (20, 3.0, 4.0)]),
        ];
        let set = TrajectorySet::from_trajectories(&trs);
        assert_eq!(set.node_count(), 3);
        assert_eq!(set.waypoint_count(), 6);
        assert_eq!(set.to_trajectories(), trs);
    }

    #[test]
    fn position_matches_trajectory_exactly() {
        let trs = vec![
            tr(&[
                (0, 0.0, 0.0),
                (10, 100.0, 50.0),
                (10, 3.0, 4.0),
                (30, 9.0, 9.0),
            ]),
            tr(&[(5, 1.0, 2.0)]),
        ];
        let set = TrajectorySet::from_trajectories(&trs);
        for (n, t) in trs.iter().enumerate() {
            for ms in (0..40_000).step_by(137) {
                let at = SimTime::from_millis(ms);
                let a = t.position_at(at);
                let b = set.position_at(n, at);
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "node {n} at {ms} ms");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "node {n} at {ms} ms");
            }
        }
    }

    #[test]
    fn position_and_next_agrees_with_position_at() {
        // Duplicate timestamps at the head, in the middle and at the
        // tail: the early-outs of `position_at` win over the segment
        // the search lands in, and the pair accessor must keep that.
        let trs = vec![
            tr(&[(5, 1.0, 2.0), (5, 9.0, 9.0), (20, 3.0, 4.0)]),
            tr(&[
                (0, 0.0, 0.0),
                (10, 100.0, 50.0),
                (10, 3.0, 4.0),
                (30, 9.0, 9.0),
            ]),
            tr(&[(0, 0.0, 0.0), (10, 7.0, 7.0), (10, 8.0, 8.0)]),
            tr(&[(5, 1.0, 2.0)]),
        ];
        let set = TrajectorySet::from_trajectories(&trs);
        for n in 0..set.node_count() {
            for ms in (0..40_000).step_by(125) {
                let at = SimTime::from_millis(ms);
                let (p, next) = set.position_and_next(n, at);
                let q = set.position_at(n, at);
                assert_eq!(p.x.to_bits(), q.x.to_bits(), "node {n} at {ms} ms");
                assert_eq!(p.y.to_bits(), q.y.to_bits(), "node {n} at {ms} ms");
                let times = set.times(n);
                assert!(times[..next].iter().all(|wt| *wt <= at));
                assert!(times[next..].iter().all(|wt| *wt > at));
            }
        }
    }

    #[test]
    fn extent_covers_sampled_positions() {
        let t = tr(&[(0, 0.0, 0.0), (10, 100.0, 0.0), (20, -50.0, 0.0)]);
        let set = TrajectorySet::from_trajectories(&[t]);
        let (t0, t1) = (SimTime::from_secs(3), SimTime::from_secs(17));
        let (lo, hi) = set.extent_x(0, t0, t1);
        let mut at = t0;
        while at <= t1 {
            let x = set.position_at(0, at).x;
            assert!(x >= lo && x <= hi, "x {x} outside [{lo}, {hi}]");
            at += SimDuration::from_millis(250);
        }
        // The interior waypoint (x = 100) is inside the window.
        assert_eq!(hi, 100.0);
    }

    #[test]
    fn push_waypoints_validates() {
        let mut set = TrajectorySet::new();
        assert_eq!(
            set.push_waypoints(Vec::new()),
            Err(SimError::EmptyTrajectory)
        );
        let unordered = vec![
            (SimTime::from_secs(5), Point::new(0.0, 0.0)),
            (SimTime::from_secs(1), Point::new(1.0, 0.0)),
        ];
        assert_eq!(
            set.push_waypoints(unordered),
            Err(SimError::UnorderedWaypoints { index: 1 })
        );
        // Failed pushes leave the set unchanged.
        assert_eq!(set.node_count(), 0);
        assert_eq!(set.waypoint_count(), 0);
        let node = set
            .push_waypoints(vec![(SimTime::ZERO, Point::new(1.0, 2.0))])
            .unwrap();
        assert_eq!(node, 0);
        assert_eq!(set.end_time(0), SimTime::ZERO);
        assert_eq!(set.times(0), &[SimTime::ZERO]);
        assert_eq!(set.point(0, 0), Point::new(1.0, 2.0));
    }
}
