// Package mobility generates deterministic node trajectories. A Model maps
// virtual time to position and velocity; all randomness is drawn from a
// seeded generator at construction or during lazy trajectory extension, so
// a model queried twice for the same instant gives the same answer and a
// scenario re-run reproduces identical movement.
//
// The paper's handoff decision uses mobile-node speed as its first factor;
// Velocity and Sample expose it. The models cover the boundary-crossing
// patterns the experiments need: random roaming (waypoint/walk), urban
// grids (Manhattan), and controlled straight-line crossings
// (Linear/PingPong) for deterministic handoff scenarios.
package mobility

import (
	"time"

	"repro/internal/geo"
	"repro/internal/simtime"
)

// Model is a deterministic trajectory.
type Model interface {
	// Position returns the node position at virtual time t.
	Position(t time.Duration) geo.Point
	// Velocity returns the instantaneous velocity in m/s at time t.
	Velocity(t time.Duration) geo.Vector
	// Sample returns Position(t) and the scalar speed
	// Velocity(t).Length(), bit for bit, from one trajectory lookup —
	// the pair the paper's handoff decision consumes each tick.
	Sample(t time.Duration) (geo.Point, float64)
}

// Speed presets in m/s for scenario configuration.
const (
	SpeedPedestrian = 1.5
	SpeedCyclist    = 5.0
	SpeedUrban      = 12.0 // city driving
	SpeedVehicle    = 20.0
	SpeedHighway    = 30.0
)

// segment is one piece of a piecewise-linear trajectory: the node moves
// from From to To over [Start, End]. A pause has From == To. speed is
// velocity().Length(), stored once when the segment joins a track.
type segment struct {
	Start, End time.Duration
	From, To   geo.Point
	speed      float64
}

func (s *segment) positionAt(t time.Duration) geo.Point {
	if s.End <= s.Start || t <= s.Start {
		return s.From
	}
	if t >= s.End {
		return s.To
	}
	frac := float64(t-s.Start) / float64(s.End-s.Start)
	return geo.Lerp(s.From, s.To, frac)
}

func (s *segment) velocity() geo.Vector {
	if s.End <= s.Start {
		return geo.Vector{}
	}
	dt := (s.End - s.Start).Seconds()
	return s.To.Sub(s.From).Scale(1 / dt)
}

// segmentTrack lazily extends a segment list and answers queries from a
// cursor, falling back to binary search. Concrete models supply the
// extend function.
type segmentTrack struct {
	segs   []segment
	extend func(last segment) segment
	// cur is the index of the segment at returned last. Ticks query each
	// model at steadily advancing times, so that segment or the one after
	// it almost always answers the next query.
	cur int
}

func (tr *segmentTrack) ensure(t time.Duration) {
	for tr.segs[len(tr.segs)-1].End < t {
		seg := tr.extend(tr.segs[len(tr.segs)-1])
		seg.speed = seg.velocity().Length()
		tr.segs = append(tr.segs, seg)
	}
}

// at returns the segment in force at t: the first one ending at or after
// t, extending the track as far as t first. The pointer is valid until
// the next extension.
//
//mmlint:noalloc
func (tr *segmentTrack) at(t time.Duration) *segment {
	if t < 0 {
		t = 0
	}
	tr.ensure(t)
	segs := tr.segs
	for i := tr.cur; i <= tr.cur+1 && i < len(segs); i++ {
		if segs[i].End >= t && (i == 0 || segs[i-1].End < t) {
			tr.cur = i
			return &segs[i]
		}
	}
	lo, hi := 0, len(segs)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if segs[m].End < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	tr.cur = lo
	return &segs[lo]
}

// sample implements Model.Sample for the segment-track models.
//
//mmlint:noalloc
func (tr *segmentTrack) sample(t time.Duration) (geo.Point, float64) {
	seg := tr.at(t)
	return seg.positionAt(t), seg.speed
}

// Stationary is a node that never moves.
type Stationary struct{ At geo.Point }

var _ Model = Stationary{}

// NewStationary returns a fixed-position model.
func NewStationary(p geo.Point) Stationary { return Stationary{At: p} }

// Position implements Model.
func (s Stationary) Position(time.Duration) geo.Point { return s.At }

// Velocity implements Model.
func (s Stationary) Velocity(time.Duration) geo.Vector { return geo.Vector{} }

// Sample implements Model.
func (s Stationary) Sample(time.Duration) (geo.Point, float64) { return s.At, 0 }

// Linear moves from A toward B at a constant speed and stays at B.
type Linear struct {
	from, to geo.Point
	speed    float64
	arrive   time.Duration
}

var _ Model = (*Linear)(nil)

// NewLinear returns a straight-line trajectory at speed m/s. No scenario
// builds one yet: the mobility tests do, and a closed-form oracle (the
// registration latency of one Linear crossing) will.
//
//mmlint:testref mobility tests; kept for the Linear-crossing closed-form oracle
func NewLinear(from, to geo.Point, speed float64) *Linear {
	l := &Linear{from: from, to: to, speed: speed}
	dist := from.DistanceTo(to)
	if speed > 0 && dist > 0 {
		l.arrive = time.Duration(dist / speed * float64(time.Second))
	}
	return l
}

// Position implements Model.
func (l *Linear) Position(t time.Duration) geo.Point {
	if l.arrive == 0 || t >= l.arrive {
		return l.to
	}
	if t <= 0 {
		return l.from
	}
	return geo.Lerp(l.from, l.to, float64(t)/float64(l.arrive))
}

// Velocity implements Model.
func (l *Linear) Velocity(t time.Duration) geo.Vector {
	if l.arrive == 0 || t >= l.arrive || t < 0 {
		return geo.Vector{}
	}
	return l.to.Sub(l.from).Unit().Scale(l.speed)
}

// Sample implements Model.
func (l *Linear) Sample(t time.Duration) (geo.Point, float64) {
	return l.Position(t), l.Velocity(t).Length()
}

// PingPong shuttles between A and B at constant speed forever — the
// deterministic repeated-handoff workload.
type PingPong struct {
	a, b   geo.Point
	speed  float64
	legDur time.Duration
}

var _ Model = (*PingPong)(nil)

// NewPingPong returns a shuttle trajectory. Degenerate inputs (zero speed
// or coincident endpoints) yield a stationary model at A.
func NewPingPong(a, b geo.Point, speed float64) *PingPong {
	p := &PingPong{a: a, b: b, speed: speed}
	dist := a.DistanceTo(b)
	if speed > 0 && dist > 0 {
		p.legDur = time.Duration(dist / speed * float64(time.Second))
	}
	return p
}

// Position implements Model.
func (p *PingPong) Position(t time.Duration) geo.Point {
	if p.legDur == 0 {
		return p.a
	}
	if t < 0 {
		t = 0
	}
	leg := int(t / p.legDur)
	frac := float64(t%p.legDur) / float64(p.legDur)
	if leg%2 == 0 {
		return geo.Lerp(p.a, p.b, frac)
	}
	return geo.Lerp(p.b, p.a, frac)
}

// Velocity implements Model.
func (p *PingPong) Velocity(t time.Duration) geo.Vector {
	if p.legDur == 0 {
		return geo.Vector{}
	}
	if t < 0 {
		t = 0
	}
	dir := p.b.Sub(p.a).Unit().Scale(p.speed)
	if int(t/p.legDur)%2 == 1 {
		dir = dir.Scale(-1)
	}
	return dir
}

// Sample implements Model.
func (p *PingPong) Sample(t time.Duration) (geo.Point, float64) {
	return p.Position(t), p.Velocity(t).Length()
}

// Waypoint is the classic random-waypoint model: pick a uniform destination
// in the arena, travel at a uniform random speed, pause, repeat.
type Waypoint struct {
	track segmentTrack
}

var _ Model = (*Waypoint)(nil)

// WaypointConfig parameterises NewWaypoint.
type WaypointConfig struct {
	Arena              geo.Rect
	MinSpeed, MaxSpeed float64       // m/s; MinSpeed > 0 avoids the RWP freeze pathology
	MinPause, MaxPause time.Duration // dwell at each waypoint
	Start              geo.Point     // initial position; zero value = arena centre
}

// NewWaypoint returns a random-waypoint trajectory drawing from rng.
func NewWaypoint(cfg WaypointConfig, rng *simtime.Rand) *Waypoint {
	if cfg.MinSpeed <= 0 {
		cfg.MinSpeed = 0.1
	}
	if cfg.MaxSpeed < cfg.MinSpeed {
		cfg.MaxSpeed = cfg.MinSpeed
	}
	start := cfg.Start
	if (start == geo.Point{}) {
		start = cfg.Arena.Center()
	}
	w := &Waypoint{}
	w.track = segmentTrack{
		segs: []segment{{Start: 0, End: 0, From: start, To: start}},
		extend: func(last segment) segment {
			// Alternate travel and pause segments; a pause follows each
			// arrival when pauses are configured.
			if last.From != last.To || last.End == 0 {
				if cfg.MaxPause > 0 {
					pause := rng.UniformDuration(cfg.MinPause, cfg.MaxPause+1)
					return segment{Start: last.End, End: last.End + pause, From: last.To, To: last.To}
				}
			}
			dest := geo.Pt(
				rng.Uniform(cfg.Arena.Min.X, cfg.Arena.Max.X),
				rng.Uniform(cfg.Arena.Min.Y, cfg.Arena.Max.Y),
			)
			speed := rng.Uniform(cfg.MinSpeed, cfg.MaxSpeed)
			dist := last.To.DistanceTo(dest)
			dur := time.Duration(dist / speed * float64(time.Second))
			if dur <= 0 {
				dur = time.Millisecond
			}
			return segment{Start: last.End, End: last.End + dur, From: last.To, To: dest}
		},
	}
	return w
}

// Position implements Model.
func (w *Waypoint) Position(t time.Duration) geo.Point { return w.track.at(t).positionAt(t) }

// Velocity implements Model.
func (w *Waypoint) Velocity(t time.Duration) geo.Vector { return w.track.at(t).velocity() }

// Sample implements Model.
//
//mmlint:noalloc
func (w *Waypoint) Sample(t time.Duration) (geo.Point, float64) { return w.track.sample(t) }

// Walk is a random-walk (random direction) model: constant speed, new
// uniform heading every epoch, reflecting off the arena boundary.
type Walk struct {
	track segmentTrack
}

var _ Model = (*Walk)(nil)

// WalkConfig parameterises NewWalk.
type WalkConfig struct {
	Arena geo.Rect
	Speed float64       // m/s
	Epoch time.Duration // heading change interval
	Start geo.Point     // zero value = arena centre
}

// NewWalk returns a random-walk trajectory drawing from rng. No scenario
// builds one yet: the mobility tests do, and a closed-form oracle (the
// fluid-flow crossing rate of a uniform walk) will.
//
//mmlint:testref mobility tests; kept for the Walk fluid-flow closed-form oracle
func NewWalk(cfg WalkConfig, rng *simtime.Rand) *Walk {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 10 * time.Second
	}
	if cfg.Speed < 0 {
		cfg.Speed = 0
	}
	start := cfg.Start
	if (start == geo.Point{}) {
		start = cfg.Arena.Center()
	}
	w := &Walk{}
	w.track = segmentTrack{
		segs: []segment{{Start: 0, End: 0, From: start, To: start}},
		extend: func(last segment) segment {
			heading := rng.Uniform(0, 2*3.141592653589793)
			step := geo.FromHeading(heading, cfg.Speed*cfg.Epoch.Seconds())
			dest := last.To.Add(step)
			dest, _ = cfg.Arena.Reflect(dest, step)
			return segment{Start: last.End, End: last.End + cfg.Epoch, From: last.To, To: dest}
		},
	}
	return w
}

// Position implements Model.
func (w *Walk) Position(t time.Duration) geo.Point { return w.track.at(t).positionAt(t) }

// Velocity implements Model.
func (w *Walk) Velocity(t time.Duration) geo.Vector { return w.track.at(t).velocity() }

// Sample implements Model.
//
//mmlint:noalloc
func (w *Walk) Sample(t time.Duration) (geo.Point, float64) { return w.track.sample(t) }

// Manhattan moves along a rectangular street grid: straight through each
// intersection with probability 1/2, else turn left or right with equal
// probability, reversing only when forced at the arena edge.
type Manhattan struct {
	track segmentTrack
}

var _ Model = (*Manhattan)(nil)

// ManhattanConfig parameterises NewManhattan.
type ManhattanConfig struct {
	Arena   geo.Rect
	Spacing float64 // street grid pitch in metres
	Speed   float64 // m/s
	Start   geo.Point
}

// NewManhattan returns a street-grid trajectory drawing from rng. The
// start point snaps to the nearest intersection.
func NewManhattan(cfg ManhattanConfig, rng *simtime.Rand) *Manhattan {
	if cfg.Spacing <= 0 {
		cfg.Spacing = 100
	}
	if cfg.Speed <= 0 {
		cfg.Speed = SpeedUrban
	}
	start := cfg.Start
	if (start == geo.Point{}) {
		start = cfg.Arena.Center()
	}
	snap := func(v, lo float64) float64 {
		steps := float64(int((v-lo)/cfg.Spacing + 0.5))
		return lo + steps*cfg.Spacing
	}
	start = cfg.Arena.Clamp(geo.Pt(snap(start.X, cfg.Arena.Min.X), snap(start.Y, cfg.Arena.Min.Y)))
	blockDur := time.Duration(cfg.Spacing / cfg.Speed * float64(time.Second))
	dirs := []geo.Vector{geo.Vec(1, 0), geo.Vec(0, 1), geo.Vec(-1, 0), geo.Vec(0, -1)}
	dirIdx := rng.Intn(4)
	m := &Manhattan{}
	m.track = segmentTrack{
		segs: []segment{{Start: 0, End: 0, From: start, To: start}},
		extend: func(last segment) segment {
			// Choose the next direction: 1/2 straight, 1/4 left, 1/4 right.
			r := rng.Float64()
			switch {
			case r < 0.5:
				// straight: keep dirIdx
			case r < 0.75:
				dirIdx = (dirIdx + 1) % 4
			default:
				dirIdx = (dirIdx + 3) % 4
			}
			// Reverse when the chosen block leaves the arena; try all four.
			for i := 0; i < 4; i++ {
				step := dirs[dirIdx].Scale(cfg.Spacing)
				dest := last.To.Add(step)
				if cfg.Arena.Contains(dest) {
					return segment{Start: last.End, End: last.End + blockDur, From: last.To, To: dest}
				}
				dirIdx = (dirIdx + 1) % 4
			}
			// Arena smaller than one block: stand still.
			return segment{Start: last.End, End: last.End + blockDur, From: last.To, To: last.To}
		},
	}
	return m
}

// Position implements Model.
func (m *Manhattan) Position(t time.Duration) geo.Point { return m.track.at(t).positionAt(t) }

// Velocity implements Model.
func (m *Manhattan) Velocity(t time.Duration) geo.Vector { return m.track.at(t).velocity() }

// Sample implements Model.
//
//mmlint:noalloc
func (m *Manhattan) Sample(t time.Duration) (geo.Point, float64) { return m.track.sample(t) }
