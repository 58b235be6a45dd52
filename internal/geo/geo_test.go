package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistance(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-2, 0), Pt(2, 0), 4},
		{Pt(0, -3), Pt(0, 3), 6},
	}
	for _, tt := range tests {
		if got := tt.p.DistanceTo(tt.q); !almost(got, tt.want) {
			t.Errorf("%v.DistanceTo(%v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
		if got := tt.q.DistanceTo(tt.p); !almost(got, tt.want) {
			t.Errorf("distance not symmetric for %v,%v", tt.p, tt.q)
		}
	}
}

func TestVectorOps(t *testing.T) {
	v := Vec(3, 4)
	if !almost(v.Length(), 5) {
		t.Fatalf("Length = %v", v.Length())
	}
	u := v.Unit()
	if !almost(u.Length(), 1) {
		t.Fatalf("Unit length = %v", u.Length())
	}
	if z := Vec(0, 0).Unit(); z.DX != 0 || z.DY != 0 {
		t.Fatalf("zero vector Unit = %v", z)
	}
	s := v.Scale(2)
	if !almost(s.DX, 6) || !almost(s.DY, 8) {
		t.Fatalf("Scale = %v", s)
	}
	p := Pt(1, 1).Add(v)
	if !almost(p.X, 4) || !almost(p.Y, 5) {
		t.Fatalf("Add = %v", p)
	}
	d := Pt(4, 5).Sub(Pt(1, 1))
	if !almost(d.DX, 3) || !almost(d.DY, 4) {
		t.Fatalf("Sub = %v", d)
	}
}

func TestHeadingRoundTrip(t *testing.T) {
	for _, h := range []float64{0, math.Pi / 4, math.Pi / 2, -math.Pi / 3, 3} {
		v := FromHeading(h, 10)
		if !almost(v.Length(), 10) {
			t.Fatalf("FromHeading length = %v", v.Length())
		}
		if got := math.Atan2(v.DY, v.DX); math.Abs(got-h) > 1e-9 {
			t.Fatalf("heading round trip %v -> %v", h, got)
		}
	}
}

func TestCircleContains(t *testing.T) {
	c := Circle{Center: Pt(0, 0), Radius: 10}
	if !c.Contains(Pt(0, 0)) || !c.Contains(Pt(10, 0)) || !c.Contains(Pt(7, 7)) {
		t.Fatal("points inside reported outside")
	}
	if c.Contains(Pt(10.01, 0)) || c.Contains(Pt(8, 8)) {
		t.Fatal("points outside reported inside")
	}
	if got := c.DistanceToEdge(Pt(6, 0)); !almost(got, 4) {
		t.Fatalf("DistanceToEdge = %v", got)
	}
	if got := c.DistanceToEdge(Pt(13, 0)); !almost(got, -3) {
		t.Fatalf("DistanceToEdge outside = %v", got)
	}
}

func TestCircleOverlapContain(t *testing.T) {
	a := Circle{Center: Pt(0, 0), Radius: 10}
	b := Circle{Center: Pt(15, 0), Radius: 6}
	if !a.Overlaps(b) {
		t.Fatal("overlapping circles reported disjoint")
	}
	c := Circle{Center: Pt(30, 0), Radius: 5}
	if a.Overlaps(c) {
		t.Fatal("disjoint circles reported overlapping")
	}
	inner := Circle{Center: Pt(2, 0), Radius: 3}
	if !a.ContainsCircle(inner) {
		t.Fatal("contained circle reported not contained")
	}
	if a.ContainsCircle(b) {
		t.Fatal("partially outside circle reported contained")
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Max: Pt(100, 50)}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(100, 50)) || !r.Contains(Pt(50, 25)) {
		t.Fatal("boundary/interior points reported outside")
	}
	if r.Contains(Pt(-1, 0)) || r.Contains(Pt(0, 51)) {
		t.Fatal("exterior points reported inside")
	}
	c := r.Center()
	if !almost(c.X, 50) || !almost(c.Y, 25) {
		t.Fatalf("center = %v", c)
	}
	cl := r.Clamp(Pt(200, -10))
	if !almost(cl.X, 100) || !almost(cl.Y, 0) {
		t.Fatalf("clamp = %v", cl)
	}
}

func TestReflect(t *testing.T) {
	r := Rect{Max: Pt(100, 100)}
	p, v := r.Reflect(Pt(-10, 50), Vec(-1, 0))
	if !almost(p.X, 10) || !almost(p.Y, 50) {
		t.Fatalf("reflected point = %v", p)
	}
	if !almost(v.DX, 1) {
		t.Fatalf("velocity not flipped: %v", v)
	}
	// Corner crossing flips both.
	p, v = r.Reflect(Pt(105, -5), Vec(2, -3))
	if !r.Contains(p) {
		t.Fatalf("corner reflect left point outside: %v", p)
	}
	if v.DX >= 0 || v.DY <= 0 {
		t.Fatalf("corner reflect velocity = %v", v)
	}
}

func TestReflectPropertyStaysInside(t *testing.T) {
	r := Rect{Max: Pt(500, 300)}
	prop := func(x, y float64, dx, dy float64) bool {
		// Constrain inputs to finite plausible magnitudes.
		x = math.Mod(x, 5000)
		y = math.Mod(y, 5000)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(dx) || math.IsNaN(dy) {
			return true
		}
		p, _ := r.Reflect(Pt(x, y), Vec(dx, dy))
		return r.Contains(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := Lerp(p, q, 0); got != p {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := Lerp(p, q, 1); got != q {
		t.Fatalf("Lerp(1) = %v", got)
	}
	mid := Lerp(p, q, 0.5)
	if !almost(mid.X, 5) || !almost(mid.Y, 10) {
		t.Fatalf("Lerp(0.5) = %v", mid)
	}
}
