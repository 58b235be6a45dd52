package geo

// Circle is a circular area. No run path uses one: cell coverage is a
// range test in topology; only the circle tests keep the type.
type Circle struct {
	Center Point
	Radius float64
}

// Contains reports whether p lies inside or on the circle.
func (c Circle) Contains(p Point) bool {
	return c.Center.DistanceTo(p) <= c.Radius
}

// DistanceToEdge returns how far p is inside the circle boundary (positive
// inside, negative outside).
func (c Circle) DistanceToEdge(p Point) float64 {
	return c.Radius - c.Center.DistanceTo(p)
}

// Overlaps reports whether two circles share any area.
func (c Circle) Overlaps(d Circle) bool {
	return c.Center.DistanceTo(d.Center) < c.Radius+d.Radius
}

// ContainsCircle reports whether d lies fully inside c.
func (c Circle) ContainsCircle(d Circle) bool {
	return c.Center.DistanceTo(d.Center)+d.Radius <= c.Radius
}
