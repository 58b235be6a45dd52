// Package faults is the deterministic fault-injection subsystem: a Plan
// is pure data describing windows of station outages, backbone link
// degradation and regional radio fade, each window expressed as a
// fraction of the run horizon so time-scaled suites still contain their
// faults. Expand resolves a Plan against a concrete topology with a
// dedicated seeded rng stream, yielding a Schedule of typed events the
// scenario engine executes on the simulation clock. Nothing here touches
// the network directly — the core installer owns the side effects — so a
// Plan is comparable, serialisable and reusable across schemes.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/simtime"
	"repro/internal/topology"
)

// ErrBadPlan reports a degenerate fault plan.
var ErrBadPlan = errors.New("faults: invalid plan")

// OutageSpec takes Count stations of one tier down for a window. The
// affected stations are drawn (without replacement) from the tier's cells
// via the dedicated rng stream, so two runs of the same plan on the same
// topology and seed fail the same stations at the same instants.
type OutageSpec struct {
	// Tier selects the station class that fails (TierRoot models a root
	// anchor outage — the mass re-registration storm scenario).
	Tier topology.Tier
	// Count is how many stations of the tier go down together.
	Count int
	// Start is the outage onset as a fraction of the run horizon.
	Start float64
	// Duration is the outage length as a fraction of the run horizon.
	Duration float64
	// Jitter spreads Start and Duration uniformly by ±Jitter (fractions
	// of the horizon), drawn from the plan's rng stream. Zero is exact.
	Jitter float64
}

// DegradeSpec degrades a fraction of the wired links for a window: extra
// random loss and extra propagation delay on the existing netsim flight
// path.
type DegradeSpec struct {
	// Fraction of all wired links affected (at least one link).
	Fraction float64
	// Loss is the additional per-packet loss probability while degraded.
	Loss float64
	// ExtraDelay is added to the links' propagation delay while degraded.
	ExtraDelay time.Duration
	// Start, Duration and Jitter follow the OutageSpec conventions.
	Start    float64
	Duration float64
	Jitter   float64
}

// FadeSpec adds air-interface loss on Count cells of one tier for a
// window — regional radio fade (rain, interference) rather than
// infrastructure failure.
type FadeSpec struct {
	// Tier selects the cell class whose air interface fades.
	Tier topology.Tier
	// Count is how many cells fade together.
	Count int
	// ExtraLoss is the additional air loss probability while fading.
	ExtraLoss float64
	// Start, Duration and Jitter follow the OutageSpec conventions.
	Start    float64
	Duration float64
	Jitter   float64
}

// Plan is one run's fault scenario: pure data, no clock, no network.
// The zero value (or an empty plan) injects nothing but still installs
// the recovery/survival probes — the baseline profile of the E11 matrix.
type Plan struct {
	Outages  []OutageSpec
	Degrades []DegradeSpec
	Fades    []FadeSpec
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return len(p.Outages) == 0 && len(p.Degrades) == 0 && len(p.Fades) == 0
}

// Validate rejects degenerate specs before a single event is scheduled.
func (p *Plan) Validate() error {
	checkWindow := func(what string, start, dur, jitter float64) error {
		if start < 0 || start > 1 {
			return fmt.Errorf("%w: %s start %v (want [0,1] fraction of horizon)", ErrBadPlan, what, start)
		}
		if dur <= 0 || dur > 1 {
			return fmt.Errorf("%w: %s duration %v (want (0,1] fraction of horizon)", ErrBadPlan, what, dur)
		}
		if jitter < 0 || jitter > 0.5 {
			return fmt.Errorf("%w: %s jitter %v (want [0,0.5])", ErrBadPlan, what, jitter)
		}
		return nil
	}
	for i, o := range p.Outages {
		what := fmt.Sprintf("outage[%d]", i)
		if o.Count <= 0 {
			return fmt.Errorf("%w: %s count %d (must be > 0)", ErrBadPlan, what, o.Count)
		}
		if err := checkWindow(what, o.Start, o.Duration, o.Jitter); err != nil {
			return err
		}
	}
	for i, d := range p.Degrades {
		what := fmt.Sprintf("degrade[%d]", i)
		if d.Fraction <= 0 || d.Fraction > 1 {
			return fmt.Errorf("%w: %s fraction %v (want (0,1])", ErrBadPlan, what, d.Fraction)
		}
		if d.Loss < 0 || d.Loss > 1 {
			return fmt.Errorf("%w: %s loss %v (want [0,1])", ErrBadPlan, what, d.Loss)
		}
		if d.Loss == 0 && d.ExtraDelay <= 0 {
			return fmt.Errorf("%w: %s degrades nothing (zero loss and delay)", ErrBadPlan, what)
		}
		if d.ExtraDelay < 0 {
			return fmt.Errorf("%w: %s extra delay %v (must be >= 0)", ErrBadPlan, what, d.ExtraDelay)
		}
		if err := checkWindow(what, d.Start, d.Duration, d.Jitter); err != nil {
			return err
		}
	}
	for i, f := range p.Fades {
		what := fmt.Sprintf("fade[%d]", i)
		if f.Count <= 0 {
			return fmt.Errorf("%w: %s count %d (must be > 0)", ErrBadPlan, what, f.Count)
		}
		if f.ExtraLoss <= 0 || f.ExtraLoss > 1 {
			return fmt.Errorf("%w: %s extra loss %v (want (0,1])", ErrBadPlan, what, f.ExtraLoss)
		}
		if err := checkWindow(what, f.Start, f.Duration, f.Jitter); err != nil {
			return err
		}
	}
	return nil
}

// Kind classifies a scheduled fault event.
type Kind uint8

// Event kinds, paired on/off per spec window.
const (
	StationDown Kind = iota + 1
	StationUp
	LinkDegrade
	LinkRestore
	FadeStart
	FadeEnd
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case StationDown:
		return "station-down"
	case StationUp:
		return "station-up"
	case LinkDegrade:
		return "link-degrade"
	case LinkRestore:
		return "link-restore"
	case FadeStart:
		return "fade-start"
	case FadeEnd:
		return "fade-end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one resolved fault transition on the simulation clock.
type Event struct {
	// At is the virtual instant the transition applies.
	At time.Duration
	// Kind selects the transition.
	Kind Kind
	// Cells are the affected station/fade cells (sorted), empty for link
	// events.
	Cells []topology.CellID
	// Links are the affected wired-link indices into the network's
	// creation-ordered link list (sorted), empty for cell events.
	Links []int
	// Loss is the additional loss probability (link degrade / radio
	// fade). A fade end carries its start's loss, so overlapping fades
	// on one cell each remove their own share; link restores and
	// station events carry zero.
	Loss float64
	// ExtraDelay is the additional link propagation delay (degrade only).
	ExtraDelay time.Duration
}

// Schedule is a plan resolved against one topology: events sorted by
// time (creation order breaks ties, so paired windows apply before later
// specs at the same instant).
type Schedule []Event

// Expand resolves the plan to concrete events. top supplies the cell
// candidates, nLinks the size of the wired-link universe (the network's
// creation-ordered link list), rng the dedicated fault stream (all draws
// happen here, in fixed spec order), and horizon the run duration the
// fractional windows scale to. Expand is a pure function of its inputs:
// the same (plan, topology, nLinks, seed, horizon) always yields the
// same schedule.
func (p *Plan) Expand(top *topology.Topology, nLinks int, rng *simtime.Rand, horizon time.Duration) (Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var sched Schedule
	window := func(start, dur, jitter float64) (time.Duration, time.Duration) {
		if jitter > 0 {
			start += rng.Uniform(-jitter, jitter)
			dur += rng.Uniform(-jitter, jitter)
		}
		if start < 0 {
			start = 0
		}
		if dur < 0.01 {
			dur = 0.01
		}
		at := time.Duration(start * float64(horizon))
		length := time.Duration(dur * float64(horizon))
		return at, length
	}
	pickCells := func(tier topology.Tier, count int) ([]topology.CellID, error) {
		cells := top.CellsOfTier(tier)
		if len(cells) == 0 {
			return nil, fmt.Errorf("%w: topology has no %s cells", ErrBadPlan, tier)
		}
		if count > len(cells) {
			count = len(cells)
		}
		perm := rng.Perm(len(cells))
		picked := make([]topology.CellID, 0, count)
		for _, idx := range perm[:count] {
			picked = append(picked, cells[idx].ID)
		}
		sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
		return picked, nil
	}
	for _, o := range p.Outages {
		cells, err := pickCells(o.Tier, o.Count)
		if err != nil {
			return nil, err
		}
		at, length := window(o.Start, o.Duration, o.Jitter)
		sched = append(sched,
			Event{At: at, Kind: StationDown, Cells: cells},
			Event{At: at + length, Kind: StationUp, Cells: cells})
	}
	for _, d := range p.Degrades {
		if nLinks <= 0 {
			return nil, fmt.Errorf("%w: degrade spec on a network with no wired links", ErrBadPlan)
		}
		count := int(d.Fraction * float64(nLinks))
		if count < 1 {
			count = 1
		}
		perm := rng.Perm(nLinks)
		links := append([]int(nil), perm[:count]...)
		sort.Ints(links)
		at, length := window(d.Start, d.Duration, d.Jitter)
		sched = append(sched,
			Event{At: at, Kind: LinkDegrade, Links: links, Loss: d.Loss, ExtraDelay: d.ExtraDelay},
			Event{At: at + length, Kind: LinkRestore, Links: links})
	}
	for _, f := range p.Fades {
		cells, err := pickCells(f.Tier, f.Count)
		if err != nil {
			return nil, err
		}
		at, length := window(f.Start, f.Duration, f.Jitter)
		sched = append(sched,
			Event{At: at, Kind: FadeStart, Cells: cells, Loss: f.ExtraLoss},
			Event{At: at + length, Kind: FadeEnd, Cells: cells, Loss: f.ExtraLoss})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// NamedPlan pairs a fault profile with the label the E11 resilience
// matrix prints.
type NamedPlan struct {
	Name string
	Plan *Plan
}

// Profiles returns the standard E11 fault profiles. "baseline" is a
// non-nil empty plan: no faults fire, but the recovery/survival probes
// install, so the baseline column measures the same way the fault
// columns do.
func Profiles() []NamedPlan {
	return []NamedPlan{
		{Name: "baseline", Plan: &Plan{}},
		{Name: "root-outage", Plan: &Plan{
			Outages: []OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: 0.30, Duration: 0.25}},
		}},
		{Name: "link-degrade", Plan: &Plan{
			Degrades: []DegradeSpec{{Fraction: 0.5, Loss: 0.30, ExtraDelay: 20 * time.Millisecond, Start: 0.25, Duration: 0.40}},
		}},
		{Name: "radio-fade", Plan: &Plan{
			Fades: []FadeSpec{{Tier: topology.TierMicro, Count: 4, ExtraLoss: 0.35, Start: 0.25, Duration: 0.40}},
		}},
		{Name: "storm", Plan: &Plan{
			// The combined stressor the degradation experiments lean on: a
			// wide root outage whose recovery triggers a mass
			// re-registration storm, on top of a regional radio fade that
			// keeps the air interface lossy while the storm drains. Count
			// over-asks on purpose — Expand clamps to the cells available,
			// so the same profile scales from one-root grids to dimensioned
			// arenas.
			Outages: []OutageSpec{{Tier: topology.TierRoot, Count: 64, Start: 0.35, Duration: 0.20}},
			Fades:   []FadeSpec{{Tier: topology.TierMicro, Count: 4, ExtraLoss: 0.35, Start: 0.40, Duration: 0.20}},
		}},
	}
}

// ProfileByName returns the named standard profile, or an error listing
// the valid names (the cmd/mmscale -faults entry point).
func ProfileByName(name string) (NamedPlan, error) {
	var names []string
	for _, np := range Profiles() {
		if np.Name == name {
			return np, nil
		}
		names = append(names, np.Name)
	}
	return NamedPlan{}, fmt.Errorf("%w: unknown profile %q (have %v)", ErrBadPlan, name, names)
}
