// Package fleet generates population-scale heterogeneous workloads: a
// Profile describes one class of mobile users (its share of the
// population, mobility model and speed distribution, and multimedia
// traffic mix), and a Spec composes profiles into a deterministic,
// seed-stable assignment of mobile nodes to profiles.
//
// The package is a leaf: it knows nothing about the scenario engine.
// core.Config carries an optional *fleet.Spec and the scenario engine
// maps each assigned profile onto its own mobility and traffic types, so
// every mobility-management scheme runs under the same fleet workload.
//
// Determinism contract: Assign is a pure function of (Spec, n, seed).
// The same spec, population and seed produce the byte-identical
// assignment on every run, on any worker, in any process — the golden
// E9 suite depends on this.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Traffic is a profile's multimedia downlink mix per MN. It mirrors the
// scenario engine's per-MN traffic switches (fleet is a leaf package and
// cannot import core): conversational CBR voice, streaming VBR video,
// and Poisson interactive data.
type Traffic struct {
	// Voice enables a 64 kb/s conversational CBR stream.
	Voice bool
	// Video enables a ~300 kb/s streaming VBR stream.
	Video bool
	// DataMeanInterval enables a Poisson interactive flow with the given
	// mean packet gap (0 disables).
	DataMeanInterval time.Duration
}

// DemandBPS returns the admission-control bandwidth of the mix: the sum
// of the enabled flows' nominal rates, floored at a signalling-only
// channel. This is the single source of the per-MN demand model — the
// scenario engine's admission control and the capacity planner's
// dimensioning arithmetic both read it, so a dimensioned arena is sized
// in exactly the bits the admission controller will later charge.
func (t Traffic) DemandBPS() float64 {
	var bps float64
	if t.Voice {
		bps += 64_000
	}
	if t.Video {
		bps += 300_000
	}
	if t.DataMeanInterval > 0 {
		bps += 32_000
	}
	if bps == 0 {
		bps = 16_000 // signalling-only sessions still need a channel
	}
	return bps
}

// Profile describes one population class.
type Profile struct {
	// Name labels the class in specs, metrics and tables. Must be unique
	// within a Spec and non-empty.
	Name string
	// Share is the class's relative weight in the population. Shares need
	// not sum to anything in particular; only ratios matter.
	Share float64
	// Mobility names the movement model, using the scenario engine's
	// mobility-kind values ("waypoint", "shuttle", "manhattan", "static",
	// ...). The engine validates it against its known kinds.
	Mobility string
	// SpeedMPS is the class's mean speed.
	SpeedMPS float64
	// SpeedJitter spreads per-MN speeds uniformly over
	// [SpeedMPS*(1-j), SpeedMPS*(1+j)]; 0 pins every MN of the class to
	// SpeedMPS. Must be in [0, 1).
	SpeedJitter float64
	// Traffic is the class's downlink mix.
	Traffic Traffic
}

// Spec composes profiles into a population mix.
type Spec struct {
	Profiles []Profile
}

// Errors returned by Validate and ParseSpec.
var (
	ErrBadSpec = errors.New("fleet: invalid spec")
)

// Validate rejects degenerate specs: no profiles, a non-positive or NaN
// share, duplicate or empty names, a negative, NaN or infinite speed, or
// jitter outside [0, 1) (NaN included).
func (s Spec) Validate() error {
	if len(s.Profiles) == 0 {
		return fmt.Errorf("%w: no profiles", ErrBadSpec)
	}
	seen := make(map[string]bool, len(s.Profiles))
	for i, p := range s.Profiles {
		if p.Name == "" {
			return fmt.Errorf("%w: profile %d has no name", ErrBadSpec, i)
		}
		if seen[p.Name] {
			return fmt.Errorf("%w: duplicate profile %q", ErrBadSpec, p.Name)
		}
		seen[p.Name] = true
		if !(p.Share > 0) || math.IsInf(p.Share, 1) { // !(>0) catches NaN too
			return fmt.Errorf("%w: profile %q share %v (must be finite and > 0)", ErrBadSpec, p.Name, p.Share)
		}
		if !(p.SpeedMPS >= 0) || math.IsInf(p.SpeedMPS, 1) {
			return fmt.Errorf("%w: profile %q speed %v (must be finite and >= 0)", ErrBadSpec, p.Name, p.SpeedMPS)
		}
		if !(p.SpeedJitter >= 0) || p.SpeedJitter >= 1 {
			return fmt.Errorf("%w: profile %q jitter %v (must be in [0,1))", ErrBadSpec, p.Name, p.SpeedJitter)
		}
	}
	return nil
}

// Counts apportions a population of n MNs across the profiles by largest
// remainder: every profile gets its floored proportional count, then the
// leftover MNs go to the profiles with the largest fractional remainders
// (ties broken by profile order, so the result is deterministic). Every
// count is >= 0 and the counts sum to n.
func (s Spec) Counts(n int) []int {
	counts := make([]int, len(s.Profiles))
	if n <= 0 || len(s.Profiles) == 0 {
		return counts
	}
	var total float64
	for _, p := range s.Profiles {
		total += p.Share
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(s.Profiles))
	assigned := 0
	for i, p := range s.Profiles {
		exact := float64(n) * p.Share / total
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; assigned < n; k++ {
		counts[rems[k%len(rems)].idx]++
		assigned++
	}
	return counts
}

// Assign maps each of n MNs to a profile index, deterministically from
// (spec, n, seed). Counts follow the largest-remainder apportionment;
// the per-MN order is a seed-keyed Fisher–Yates shuffle so profiles mix
// spatially (MN index drives the start cell in the scenario engine)
// instead of forming contiguous blocks.
func (s Spec) Assign(n int, seed int64) []int {
	counts := s.Counts(n)
	assign := make([]int, 0, n)
	for p, c := range counts {
		for k := 0; k < c; k++ {
			assign = append(assign, p)
		}
	}
	r := splitmix64(uint64(seed) ^ 0x6c62272e07bb0142)
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		assign[i], assign[j] = assign[j], assign[i]
	}
	return assign
}

// splitmix64 is the tiny self-contained PRNG behind Assign's shuffle —
// fleet stays a leaf package with no dependency on the simulator's rng,
// and the shuffle stays stable even if that rng ever changes.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Built-in profile library

// Builtin profile names.
const (
	PedestrianVoice = "pedestrian-voice"
	VehicularVideo  = "vehicular-video"
	StationaryData  = "stationary-data"
	CyclistMixed    = "cyclist-mixed"
)

// Builtin returns the named library profile (share 1; callers reweight)
// and whether the name is known.
func Builtin(name string) (Profile, bool) {
	switch name {
	case PedestrianVoice:
		// Walking callers roaming the arena.
		return Profile{
			Name: name, Share: 1,
			Mobility: "waypoint", SpeedMPS: 1.5, SpeedJitter: 0.3,
			Traffic: Traffic{Voice: true},
		}, true
	case VehicularVideo:
		// Street-grid vehicles streaming video.
		return Profile{
			Name: name, Share: 1,
			Mobility: "manhattan", SpeedMPS: 20, SpeedJitter: 0.25,
			Traffic: Traffic{Video: true},
		}, true
	case StationaryData:
		// Parked users with interactive data.
		return Profile{
			Name: name, Share: 1,
			Mobility: "static", SpeedMPS: 0,
			Traffic: Traffic{DataMeanInterval: 500 * time.Millisecond},
		}, true
	case CyclistMixed:
		// Cyclists with voice plus background data.
		return Profile{
			Name: name, Share: 1,
			Mobility: "waypoint", SpeedMPS: 5, SpeedJitter: 0.2,
			Traffic: Traffic{Voice: true, DataMeanInterval: 2 * time.Second},
		}, true
	}
	return Profile{}, false
}

// DefaultSpec is the paper-flavoured urban mix the E9 scale sweep runs:
// 60% walking voice users, 25% vehicular video streamers, 15% stationary
// data users.
func DefaultSpec() Spec {
	pv, _ := Builtin(PedestrianVoice)
	vv, _ := Builtin(VehicularVideo)
	sd, _ := Builtin(StationaryData)
	pv.Share, vv.Share, sd.Share = 60, 25, 15
	return Spec{Profiles: []Profile{pv, vv, sd}}
}

// ParseSpec parses a "name=share,name=share" list of built-in profiles
// ("pedestrian-voice=60,vehicular-video=25,stationary-data=15") into a
// Spec. A bare "name" takes share 1.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, shareStr, hasShare := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		p, ok := Builtin(name)
		if !ok {
			return Spec{}, fmt.Errorf("%w: unknown profile %q", ErrBadSpec, name)
		}
		if hasShare {
			share, err := strconv.ParseFloat(strings.TrimSpace(shareStr), 64)
			if err != nil {
				return Spec{}, fmt.Errorf("%w: profile %q share %q: %v", ErrBadSpec, name, shareStr, err)
			}
			p.Share = share
		}
		spec.Profiles = append(spec.Profiles, p)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// String renders the spec as a ParseSpec-compatible list.
func (s Spec) String() string {
	parts := make([]string, len(s.Profiles))
	for i, p := range s.Profiles {
		parts[i] = fmt.Sprintf("%s=%g", p.Name, p.Share)
	}
	return strings.Join(parts, ",")
}
