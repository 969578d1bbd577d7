//! 2-D geometry primitives: points, segments, distances and projections.

/// A point (or vector) in the 2-D monitoring-area plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from metre coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Vector difference `self - other`.
    pub fn sub(&self, other: Point) -> Point {
        Point::new(self.x - other.x, self.y - other.y)
    }

    /// Dot product treating points as vectors.
    pub fn dot(&self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Euclidean norm treating the point as a vector.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// A line segment between two points (a wireless link's direct path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point (the transmitter).
    pub a: Point,
    /// End point (the receiver).
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length in metres.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Projects `p` onto the segment, returning the clamped parameter
    /// `t` in `[0, 1]` such that the closest point is `a + t (b - a)`.
    fn project(&self, p: Point) -> f64 {
        let d = self.b.sub(self.a);
        let len_sq = d.dot(d);
        if len_sq == 0.0 {
            return 0.0;
        }
        (p.sub(self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// The point on the segment at parameter `t` in `[0, 1]`.
    fn point_at(&self, t: f64) -> Point {
        Point::new(
            self.a.x + t * (self.b.x - self.a.x),
            self.a.y + t * (self.b.y - self.a.y),
        )
    }

    /// Shortest distance from `p` to the segment.
    pub fn distance_to(&self, p: Point) -> f64 {
        self.point_at(self.project(p)).distance(p)
    }

    /// Distances `(d1, d2)` from the closest point on the *infinite* line
    /// through the segment to the two endpoints, used by Fresnel-zone
    /// computations. The projection parameter is clamped to `[0, 1]` so
    /// `d1 + d2 == length()` always holds.
    pub fn split_distances(&self, p: Point) -> (f64, f64) {
        let t = self.project(p);
        let len = self.length();
        (t * len, (1.0 - t) * len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.norm(), 5.0);
    }

    #[test]
    fn segment_length_and_midpoint() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.length(), 10.0);
        let mid = s.point_at(0.5);
        assert_eq!(mid, Point::new(5.0, 0.0));
    }

    #[test]
    fn projection_on_segment() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.project(Point::new(3.0, 5.0)), 0.3);
        // Beyond the endpoints the parameter clamps.
        assert_eq!(s.project(Point::new(-5.0, 1.0)), 0.0);
        assert_eq!(s.project(Point::new(15.0, 1.0)), 1.0);
    }

    #[test]
    fn distance_to_segment() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.distance_to(Point::new(5.0, 2.0)), 2.0);
        assert_eq!(s.distance_to(Point::new(13.0, 4.0)), 5.0);
    }

    #[test]
    fn split_distances_sum_to_length() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(8.0, 6.0));
        let p = Point::new(4.0, 3.0);
        let (d1, d2) = s.split_distances(p);
        assert!((d1 + d2 - s.length()).abs() < 1e-12);
        assert!((d1 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.project(Point::new(5.0, 5.0)), 0.0);
        assert!((s.distance_to(Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }
}
