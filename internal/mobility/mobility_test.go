package mobility

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/simtime"
)

func TestStationary(t *testing.T) {
	s := NewStationary(geo.Pt(3, 4))
	for _, at := range []time.Duration{0, time.Second, time.Hour} {
		if s.Position(at) != geo.Pt(3, 4) {
			t.Fatalf("moved at %v", at)
		}
		if Speed(s, at) != 0 {
			t.Fatalf("nonzero speed at %v", at)
		}
	}
}

func TestLinearKinematics(t *testing.T) {
	l := NewLinear(geo.Pt(0, 0), geo.Pt(100, 0), 10) // 10s trip
	if got := l.Position(0); got != geo.Pt(0, 0) {
		t.Fatalf("t=0: %v", got)
	}
	if got := l.Position(5 * time.Second); math.Abs(got.X-50) > 1e-9 {
		t.Fatalf("t=5s: %v", got)
	}
	if got := l.Position(10 * time.Second); got != geo.Pt(100, 0) {
		t.Fatalf("t=10s: %v", got)
	}
	if got := l.Position(time.Hour); got != geo.Pt(100, 0) {
		t.Fatalf("after arrival: %v", got)
	}
	if v := l.Velocity(3 * time.Second); math.Abs(v.DX-10) > 1e-9 || v.DY != 0 {
		t.Fatalf("velocity mid-trip: %v", v)
	}
	if v := l.Velocity(time.Hour); v.Length() != 0 {
		t.Fatalf("velocity after arrival: %v", v)
	}
	if got := l.Position(-time.Second); got != geo.Pt(0, 0) {
		t.Fatalf("negative time: %v", got)
	}
}

func TestLinearDegenerate(t *testing.T) {
	l := NewLinear(geo.Pt(5, 5), geo.Pt(5, 5), 10)
	if l.Position(time.Second) != geo.Pt(5, 5) {
		t.Fatal("degenerate linear moved")
	}
	l2 := NewLinear(geo.Pt(0, 0), geo.Pt(10, 0), 0)
	if l2.Position(time.Second) != geo.Pt(10, 0) {
		t.Fatal("zero-speed linear should sit at destination")
	}
}

func TestPingPongShuttles(t *testing.T) {
	p := NewPingPong(geo.Pt(0, 0), geo.Pt(100, 0), 10) // 10s per leg
	cases := []struct {
		at   time.Duration
		want geo.Point
	}{
		{0, geo.Pt(0, 0)},
		{5 * time.Second, geo.Pt(50, 0)},
		{10 * time.Second, geo.Pt(0, 0)}, // leg 1 position at frac 0 = b? see below
		{15 * time.Second, geo.Pt(50, 0)},
		{20 * time.Second, geo.Pt(0, 0)},
		{25 * time.Second, geo.Pt(50, 0)},
	}
	// At exactly t=10s the shuttle is at B turning around: leg=1, frac=0 => B.
	cases[2].want = geo.Pt(100, 0)
	cases[4].want = geo.Pt(0, 0)
	for _, c := range cases {
		got := p.Position(c.at)
		if math.Abs(got.X-c.want.X) > 1e-6 {
			t.Fatalf("t=%v: %v, want %v", c.at, got, c.want)
		}
	}
	// Velocity flips sign between legs.
	v0 := p.Velocity(5 * time.Second)
	v1 := p.Velocity(15 * time.Second)
	if v0.DX <= 0 || v1.DX >= 0 {
		t.Fatalf("velocities %v / %v, want opposite signs", v0, v1)
	}
	if math.Abs(Speed(p, 5*time.Second)-10) > 1e-9 {
		t.Fatalf("speed = %v", Speed(p, 5*time.Second))
	}
}

func TestPingPongDegenerate(t *testing.T) {
	p := NewPingPong(geo.Pt(1, 1), geo.Pt(1, 1), 10)
	if p.Position(time.Hour) != geo.Pt(1, 1) || p.Velocity(time.Hour).Length() != 0 {
		t.Fatal("degenerate ping-pong misbehaves")
	}
}

func TestWaypointStaysInArenaAndIsDeterministic(t *testing.T) {
	arena := geo.Rect{Max: geo.Pt(1000, 800)}
	cfg := WaypointConfig{Arena: arena, MinSpeed: 1, MaxSpeed: 20, MinPause: 0, MaxPause: 5 * time.Second}
	w1 := NewWaypoint(cfg, simtime.NewRand(7))
	w2 := NewWaypoint(cfg, simtime.NewRand(7))
	for at := time.Duration(0); at < time.Hour; at += 13 * time.Second {
		p1 := w1.Position(at)
		if !arena.Contains(p1) {
			t.Fatalf("left arena at %v: %v", at, p1)
		}
		if p2 := w2.Position(at); p1 != p2 {
			t.Fatalf("nondeterministic at %v: %v vs %v", at, p1, p2)
		}
	}
}

func TestWaypointSpeedBounds(t *testing.T) {
	arena := geo.Rect{Max: geo.Pt(1000, 800)}
	w := NewWaypoint(WaypointConfig{Arena: arena, MinSpeed: 5, MaxSpeed: 10}, simtime.NewRand(3))
	var moving int
	for at := time.Second; at < 30*time.Minute; at += 7 * time.Second {
		sp := Speed(w, at)
		if sp != 0 {
			moving++
			if sp < 5-1e-9 || sp > 10+1e-9 {
				t.Fatalf("speed %v outside [5,10] at %v", sp, at)
			}
		}
	}
	if moving == 0 {
		t.Fatal("node never moved")
	}
}

// trackModel is a segment-track model: a Model with a cached Speed.
type trackModel interface {
	Model
	Speed(t time.Duration) float64
}

// namedTrack is one trackModels entry.
type namedTrack struct {
	name string
	m    trackModel
}

// trackModels builds one model of each segment-track kind from seed.
// Pauses and a tiny Manhattan spacing give zero-length and back-to-back
// segments for the cursor to step over.
func trackModels(seed int64) []namedTrack {
	arena := geo.Rect{Max: geo.Pt(500, 500)}
	return []namedTrack{
		{"waypoint", NewWaypoint(WaypointConfig{Arena: arena, MinSpeed: 1, MaxSpeed: 10, MaxPause: time.Second},
			simtime.NewRand(seed))},
		{"walk", NewWalk(WalkConfig{Arena: arena, Speed: 7, Epoch: 3 * time.Second}, simtime.NewRand(seed))},
		{"manhattan", NewManhattan(ManhattanConfig{Arena: arena, Spacing: 20, Speed: 12}, simtime.NewRand(seed))},
	}
}

// track returns the model's segment track, extended to two minutes.
func (nt namedTrack) track() *segmentTrack {
	var tr *segmentTrack
	switch m := nt.m.(type) {
	case *Waypoint:
		tr = &m.track
	case *Walk:
		tr = &m.track
	case *Manhattan:
		tr = &m.track
	}
	tr.ensure(2 * time.Minute)
	return tr
}

// A segment-track model answers a query the same whatever queries came
// before it: one model queried at ascending times (the cursor's common
// case) and a twin queried at the same times shuffled (cursor misses,
// backward jumps, lazy extension far ahead) agree bit for bit on
// position, velocity and speed, and Speed(t) is bit-equal to
// Velocity(t).Length().
func TestWaypointQueriesAreOrderIndependent(t *testing.T) {
	for i, tm := range trackModels(11) {
		t.Run(tm.name, func(t *testing.T) {
			fwd, shuf := tm.m, trackModels(11)[i].m
			r := simtime.NewRand(5)
			times := []time.Duration{0, 0, time.Minute, 10 * time.Minute, 30 * time.Minute}
			for at := time.Duration(0); at < 2*time.Minute; at += time.Duration(r.Intn(400)) * time.Millisecond {
				times = append(times, at)
			}
			// Segment boundaries, where the first segment ending at or
			// after t and the one after it disagree on velocity.
			for _, seg := range trackModels(11)[i].track().segs {
				if seg.End < 2*time.Minute {
					times = append(times, seg.End, seg.End+1)
				}
			}
			slices.Sort(times)
			type answer struct {
				pos   geo.Point
				vel   geo.Vector
				speed float64
			}
			want := make(map[time.Duration]answer, len(times))
			for _, at := range times {
				a := answer{fwd.Position(at), fwd.Velocity(at), fwd.Speed(at)}
				if math.Float64bits(a.speed) != math.Float64bits(a.vel.Length()) {
					t.Fatalf("Speed(%v) = %v, Velocity(%v).Length() = %v", at, a.speed, at, a.vel.Length())
				}
				if got := Speed(fwd, at); math.Float64bits(got) != math.Float64bits(a.speed) {
					t.Fatalf("mobility.Speed(%v) = %v, want %v", at, got, a.speed)
				}
				want[at] = a
			}
			for _, k := range r.Perm(len(times)) {
				at := times[k]
				got := answer{shuf.Position(at), shuf.Velocity(at), shuf.Speed(at)}
				if got != want[at] {
					t.Fatalf("shuffled query at %v: %+v, want %+v", at, got, want[at])
				}
			}
		})
	}
}

// A warm position + speed query — the measurement tick's — allocates
// nothing.
func TestTrackQueryAllocFree(t *testing.T) {
	for _, tm := range trackModels(3) {
		m := tm.m
		m.Position(time.Hour) // extend the track past every query below
		at := time.Duration(0)
		allocs := testing.AllocsPerRun(1000, func() {
			at += 100 * time.Millisecond
			_ = m.Position(at)
			_ = Speed(m, at)
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocs per warm query, want 0", tm.name, allocs)
		}
	}
}

func TestWalkStaysInArena(t *testing.T) {
	arena := geo.Rect{Max: geo.Pt(300, 300)}
	w := NewWalk(WalkConfig{Arena: arena, Speed: 25, Epoch: 5 * time.Second}, simtime.NewRand(5))
	for at := time.Duration(0); at < time.Hour; at += 3 * time.Second {
		if p := w.Position(at); !arena.Contains(p) {
			t.Fatalf("walk left arena at %v: %v", at, p)
		}
	}
}

func TestWalkDefaults(t *testing.T) {
	arena := geo.Rect{Max: geo.Pt(100, 100)}
	w := NewWalk(WalkConfig{Arena: arena, Speed: -5}, simtime.NewRand(1))
	if got := w.Position(time.Minute); got != arena.Center() {
		t.Fatalf("negative speed should pin to start, got %v", got)
	}
}

func TestManhattanStaysOnGrid(t *testing.T) {
	arena := geo.Rect{Max: geo.Pt(1000, 1000)}
	spacing := 100.0
	m := NewManhattan(ManhattanConfig{Arena: arena, Spacing: spacing, Speed: 10}, simtime.NewRand(9))
	blockDur := time.Duration(spacing / 10 * float64(time.Second))
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * blockDur // sample at intersections
		p := m.Position(at)
		if !arena.Contains(p) {
			t.Fatalf("left arena at %v: %v", at, p)
		}
		onX := math.Mod(p.X, spacing)
		onY := math.Mod(p.Y, spacing)
		if math.Min(onX, spacing-onX) > 1e-6 && math.Min(onY, spacing-onY) > 1e-6 {
			t.Fatalf("off street grid at %v: %v", at, p)
		}
	}
}

func TestManhattanMovesAxisAligned(t *testing.T) {
	arena := geo.Rect{Max: geo.Pt(1000, 1000)}
	m := NewManhattan(ManhattanConfig{Arena: arena, Spacing: 100, Speed: 10}, simtime.NewRand(2))
	for at := time.Second; at < 10*time.Minute; at += 7 * time.Second {
		v := m.Velocity(at)
		if v.Length() == 0 {
			continue
		}
		if math.Abs(v.DX) > 1e-9 && math.Abs(v.DY) > 1e-9 {
			t.Fatalf("diagonal movement at %v: %v", at, v)
		}
		if math.Abs(v.Length()-10) > 1e-6 {
			t.Fatalf("speed %v, want 10", v.Length())
		}
	}
}

func TestManhattanTinyArena(t *testing.T) {
	arena := geo.Rect{Max: geo.Pt(10, 10)} // smaller than one block
	m := NewManhattan(ManhattanConfig{Arena: arena, Spacing: 100, Speed: 10}, simtime.NewRand(2))
	p0 := m.Position(0)
	if p := m.Position(time.Minute); p != p0 {
		t.Fatalf("trapped node moved: %v -> %v", p0, p)
	}
}

// Property: every model's position is a continuous function of time
// (no teleporting): over a small dt the displacement is bounded by
// maxSpeed*dt plus epsilon.
func TestContinuityProperty(t *testing.T) {
	arena := geo.Rect{Max: geo.Pt(1000, 1000)}
	models := []Model{
		NewWaypoint(WaypointConfig{Arena: arena, MinSpeed: 1, MaxSpeed: 30, MaxPause: 2 * time.Second}, simtime.NewRand(21)),
		NewWalk(WalkConfig{Arena: arena, Speed: 30, Epoch: 4 * time.Second}, simtime.NewRand(22)),
		NewManhattan(ManhattanConfig{Arena: arena, Spacing: 50, Speed: 30}, simtime.NewRand(23)),
		NewPingPong(geo.Pt(0, 0), geo.Pt(500, 0), 30),
		NewLinear(geo.Pt(0, 0), geo.Pt(500, 500), 30),
	}
	const maxSpeed = 30.0
	prop := func(tMillis uint32) bool {
		at := time.Duration(tMillis%3_600_000) * time.Millisecond
		dt := 100 * time.Millisecond
		for _, m := range models {
			d := m.Position(at).DistanceTo(m.Position(at + dt))
			// Walk reflection can double the apparent displacement.
			if d > 2*maxSpeed*dt.Seconds()+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
