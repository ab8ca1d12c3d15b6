//! Piecewise-linear trajectories: the common output format of all
//! mobility generators and the input to contact detection.

use crate::error::SimError;
use crate::geo::Point;
use crate::time::SimTime;

/// A node's movement as a sequence of `(time, position)` waypoints with
/// linear interpolation between them.
///
/// Before the first waypoint the node sits at the first position; after
/// the last it sits at the last.
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    waypoints: Vec<(SimTime, Point)>,
}

impl Trajectory {
    /// Creates a trajectory from waypoints.
    ///
    /// Returns [`SimError::EmptyTrajectory`] for an empty list and
    /// [`SimError::UnorderedWaypoints`] when a timestamp moves backwards
    /// — external trace data must never be able to panic the process.
    pub fn new(waypoints: Vec<(SimTime, Point)>) -> Result<Trajectory, SimError> {
        if waypoints.is_empty() {
            return Err(SimError::EmptyTrajectory);
        }
        for (i, w) in waypoints.windows(2).enumerate() {
            if w[0].0 > w[1].0 {
                return Err(SimError::UnorderedWaypoints { index: i + 1 });
            }
        }
        Ok(Trajectory { waypoints })
    }

    /// A node that never moves.
    pub fn stationary(p: Point) -> Trajectory {
        Trajectory {
            waypoints: vec![(SimTime::ZERO, p)],
        }
    }

    /// The waypoint list.
    pub fn waypoints(&self) -> &[(SimTime, Point)] {
        &self.waypoints
    }

    /// Position at time `t` by linear interpolation.
    pub fn position_at(&self, t: SimTime) -> Point {
        let wps = &self.waypoints;
        if t <= wps[0].0 {
            return wps[0].1;
        }
        if t >= wps[wps.len() - 1].0 {
            return wps[wps.len() - 1].1;
        }
        // Binary search for the segment containing t.
        let idx = wps.partition_point(|(wt, _)| *wt <= t);
        let (t0, p0) = wps[idx - 1];
        let (t1, p1) = wps[idx];
        if t1 == t0 {
            return p1;
        }
        let frac =
            (t.as_millis() - t0.as_millis()) as f64 / (t1.as_millis() - t0.as_millis()) as f64;
        p0.lerp(&p1, frac)
    }

    /// Total path length in metres.
    pub fn path_length(&self) -> f64 {
        self.waypoints
            .windows(2)
            .map(|w| w[0].1.distance(&w[1].1))
            .sum()
    }

    /// End time of the trajectory.
    pub fn end_time(&self) -> SimTime {
        self.waypoints[self.waypoints.len() - 1].0
    }
}

/// A builder that appends movement segments in time order.
#[derive(Clone, Debug)]
pub struct TrajectoryBuilder {
    waypoints: Vec<(SimTime, Point)>,
    cursor: SimTime,
    position: Point,
}

impl TrajectoryBuilder {
    /// Starts at `start` position at time `t0`.
    pub fn new(t0: SimTime, start: Point) -> TrajectoryBuilder {
        TrajectoryBuilder {
            waypoints: vec![(t0, start)],
            cursor: t0,
            position: start,
        }
    }

    /// Current position of the builder cursor.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Current time of the builder cursor.
    pub fn now(&self) -> SimTime {
        self.cursor
    }

    /// Stays in place until `until` (no-op if `until` is in the past).
    pub fn wait_until(&mut self, until: SimTime) -> &mut Self {
        if until > self.cursor {
            self.cursor = until;
            self.waypoints.push((self.cursor, self.position));
        }
        self
    }

    /// Moves in a straight line to `dest` at `speed_mps` metres/second.
    ///
    /// Returns [`SimError::NonPositiveSpeed`] if `speed_mps` is zero,
    /// negative, or not finite.
    pub fn travel_to(&mut self, dest: Point, speed_mps: f64) -> Result<&mut Self, SimError> {
        if !(speed_mps > 0.0 && speed_mps.is_finite()) {
            return Err(SimError::NonPositiveSpeed);
        }
        let dist = self.position.distance(&dest);
        let travel_ms = (dist / speed_mps * 1000.0).round() as u64;
        self.cursor = SimTime::from_millis(self.cursor.as_millis() + travel_ms.max(1));
        self.position = dest;
        self.waypoints.push((self.cursor, dest));
        Ok(self)
    }

    /// Finishes the trajectory.
    pub fn build(self) -> Trajectory {
        Trajectory::new(self.waypoints).expect("builder waypoints are ordered by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation() {
        let tr = Trajectory::new(vec![
            (SimTime::from_secs(0), Point::new(0.0, 0.0)),
            (SimTime::from_secs(10), Point::new(100.0, 0.0)),
        ])
        .unwrap();
        assert_eq!(tr.position_at(SimTime::from_secs(5)), Point::new(50.0, 0.0));
        // Clamped at both ends.
        assert_eq!(tr.position_at(SimTime::ZERO), Point::new(0.0, 0.0));
        assert_eq!(
            tr.position_at(SimTime::from_secs(99)),
            Point::new(100.0, 0.0)
        );
    }

    #[test]
    fn stationary_everywhere() {
        let p = Point::new(5.0, 6.0);
        let tr = Trajectory::stationary(p);
        assert_eq!(tr.position_at(SimTime::from_hours(100)), p);
        assert_eq!(tr.path_length(), 0.0);
    }

    #[test]
    fn builder_sequences_segments() {
        let mut b = TrajectoryBuilder::new(SimTime::ZERO, Point::new(0.0, 0.0));
        b.wait_until(SimTime::from_secs(60));
        b.travel_to(Point::new(60.0, 0.0), 1.0).unwrap(); // 60 s of travel
        let tr = b.build();
        assert_eq!(tr.position_at(SimTime::from_secs(30)), Point::new(0.0, 0.0));
        assert_eq!(
            tr.position_at(SimTime::from_secs(90)),
            Point::new(30.0, 0.0)
        );
        assert!((tr.path_length() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn unordered_waypoints_error() {
        let err = Trajectory::new(vec![
            (SimTime::from_secs(5), Point::new(0.0, 0.0)),
            (SimTime::from_secs(1), Point::new(1.0, 0.0)),
        ])
        .unwrap_err();
        assert_eq!(err, SimError::UnorderedWaypoints { index: 1 });
    }

    #[test]
    fn empty_waypoints_error() {
        assert_eq!(
            Trajectory::new(Vec::new()).unwrap_err(),
            SimError::EmptyTrajectory
        );
    }

    #[test]
    fn bad_speed_errors() {
        let mut b = TrajectoryBuilder::new(SimTime::ZERO, Point::new(0.0, 0.0));
        for speed in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                b.travel_to(Point::new(1.0, 0.0), speed).unwrap_err(),
                SimError::NonPositiveSpeed
            );
        }
        // The failed calls left the builder untouched.
        assert_eq!(b.build().waypoints().len(), 1);
    }
}
