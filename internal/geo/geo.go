// Package geo provides the 2-D geometry used by cell coverage, radio
// propagation and mobility models: points, vectors, distances and
// rectangular arenas. Coordinates are metres in a flat plane, which is
// accurate at the pico/micro/macro-cell scales the paper considers (tens
// of metres to tens of kilometres).
package geo

import (
	"fmt"
	"math"
)

// Point is a position in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String formats the point with centimetre precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p + v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// DistanceTo returns the Euclidean distance in metres.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Vector is a displacement in metres.
type Vector struct {
	DX, DY float64
}

// Vec is shorthand for Vector{dx, dy}.
func Vec(dx, dy float64) Vector { return Vector{DX: dx, DY: dy} }

// Length returns the vector magnitude.
func (v Vector) Length() float64 { return math.Hypot(v.DX, v.DY) }

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector { return Vector{v.DX * k, v.DY * k} }

// Unit returns the unit vector in v's direction. The zero vector maps to
// the zero vector rather than NaN so that stationary nodes are harmless.
func (v Vector) Unit() Vector {
	l := v.Length()
	if l == 0 {
		return Vector{}
	}
	return Vector{v.DX / l, v.DY / l}
}

// FromHeading builds a vector of the given length pointing along the
// heading angle (radians).
func FromHeading(heading, length float64) Vector {
	return Vector{math.Cos(heading) * length, math.Sin(heading) * length}
}

// Rect is an axis-aligned rectangle, used as the mobility arena boundary.
type Rect struct {
	Min, Max Point
}

// Contains reports whether p lies inside or on the rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Center returns the rectangle midpoint.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Reflect bounces a point that left the rectangle back inside, mirroring
// across the violated edge, and flips the corresponding velocity component.
// It returns the corrected point and velocity. Mobility models use this to
// keep nodes inside the arena.
func (r Rect) Reflect(p Point, v Vector) (Point, Vector) {
	for i := 0; i < 8 && !r.Contains(p); i++ { // bounded: huge steps converge fast
		if p.X < r.Min.X {
			p.X = 2*r.Min.X - p.X
			v.DX = -v.DX
		} else if p.X > r.Max.X {
			p.X = 2*r.Max.X - p.X
			v.DX = -v.DX
		}
		if p.Y < r.Min.Y {
			p.Y = 2*r.Min.Y - p.Y
			v.DY = -v.DY
		} else if p.Y > r.Max.Y {
			p.Y = 2*r.Max.Y - p.Y
			v.DY = -v.DY
		}
	}
	if !r.Contains(p) { // degenerate rect or pathological step: clamp
		p = r.Clamp(p)
	}
	return p, v
}

// Lerp linearly interpolates from p to q with t in [0,1].
func Lerp(p, q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}
