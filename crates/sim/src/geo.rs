//! A flat metric plane for node positions.
//!
//! The field study area is ~11 km × 8 km (paper Fig. 4b); at that scale a
//! flat plane in metres is an adequate model and keeps distances exact.

/// A position in metres on the simulation plane.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    /// East–west coordinate in metres.
    pub x: f64,
    /// North–south coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to another point, in metres.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Linear interpolation: the point `frac` of the way to `other`
    /// (`frac` clamped to `[0, 1]`).
    pub fn lerp(&self, other: &Point, frac: f64) -> Point {
        let f = frac.clamp(0.0, 1.0);
        Point {
            x: self.x + (other.x - self.x) * f,
            y: self.y + (other.y - self.y) * f,
        }
    }
}

/// A rectangular simulation area `[0, width] × [0, height]`, in metres.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bounds {
    /// Width (east–west extent) in metres.
    pub width: f64,
    /// Height (north–south extent) in metres.
    pub height: f64,
}

impl Bounds {
    /// Creates bounds.
    ///
    /// # Panics
    ///
    /// Panics on non-positive dimensions.
    pub fn new(width: f64, height: f64) -> Bounds {
        assert!(width > 0.0 && height > 0.0, "bounds must be positive");
        Bounds { width, height }
    }

    /// The ~11 km × 8 km Gainesville field-study area of the paper.
    pub fn gainesville() -> Bounds {
        Bounds::new(11_000.0, 8_000.0)
    }

    /// Area in square kilometres (88 km² for the field study).
    pub fn area_km2(&self) -> f64 {
        self.width * self.height / 1e6
    }

    /// True if `p` lies inside (inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= 0.0 && p.y >= 0.0 && p.x <= self.width && p.y <= self.height
    }

    /// Clamps a point into the bounds.
    pub fn clamp(&self, p: Point) -> Point {
        Point {
            x: p.x.clamp(0.0, self.width),
            y: p.y.clamp(0.0, self.height),
        }
    }

    /// A uniformly random point inside the bounds.
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> Point {
        Point {
            x: rng.gen_range(0.0..=self.width),
            y: rng.gen_range(0.0..=self.height),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_clamp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(5.0, 0.0));
        assert_eq!(a.lerp(&b, 7.0), b, "over-interpolation clamps");
    }

    #[test]
    fn gainesville_area() {
        let b = Bounds::gainesville();
        assert!((b.area_km2() - 88.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_stays_inside() {
        let b = Bounds::new(100.0, 50.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(b.contains(&b.sample(&mut rng)));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bounds_panic() {
        Bounds::new(0.0, 5.0);
    }
}
