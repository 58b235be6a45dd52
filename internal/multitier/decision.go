package multitier

import (
	"fmt"

	"repro/internal/radio"
	"repro/internal/topology"
)

// HandoffKind classifies a handoff per §3.2. Kinds map one-to-one onto the
// paper's figures.
type HandoffKind int

// Handoff kinds.
const (
	// KindInitial is the first attachment (no previous cell).
	KindInitial HandoffKind = iota + 1
	// KindIntraMicroMicro is Fig 3.4 case c: micro-cell to micro-cell in
	// the same domain.
	KindIntraMicroMicro
	// KindIntraMicroMacro is Fig 3.4 case b: micro-cell to macro-cell
	// (coverage hole or micro congestion).
	KindIntraMicroMacro
	// KindIntraMacroMicro is Fig 3.4 case a: macro-cell down to
	// micro-cell (overlap entered or more bandwidth wanted).
	KindIntraMacroMicro
	// KindInterSameUpper is Fig 3.2: the two domains share the same
	// upper-layer base station.
	KindInterSameUpper
	// KindInterDiffUpper is Fig 3.3: the domains hang under different
	// upper-layer base stations, so the home network must be involved.
	KindInterDiffUpper
)

// String implements fmt.Stringer.
func (k HandoffKind) String() string {
	switch k {
	case KindInitial:
		return "initial"
	case KindIntraMicroMicro:
		return "intra/micro-micro"
	case KindIntraMicroMacro:
		return "intra/micro-macro"
	case KindIntraMacroMicro:
		return "intra/macro-micro"
	case KindInterSameUpper:
		return "inter/same-upper"
	case KindInterDiffUpper:
		return "inter/diff-upper"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Classify determines the handoff kind for a move from old to new.
// Pico-tier cells classify like micro (they sit inside the micro-tier for
// mobility purposes), and the upper-layer root BS classifies like macro:
// moving between a cell and its own subtree's root is an intra-domain
// tier change, not an inter-domain handoff. For macro↔root moves the
// intra kinds generalise to "up-tier" (micro→macro) and "down-tier"
// (macro→micro).
func Classify(top *topology.Topology, old, new topology.CellID) HandoffKind {
	if old == topology.NoCell {
		return KindInitial
	}
	sameRoot := top.SameUpperBS(old, new)
	rootInvolved := top.TierOf(old) == topology.TierRoot || top.TierOf(new) == topology.TierRoot
	if !top.SameDomain(old, new) && !(sameRoot && rootInvolved) {
		if sameRoot {
			return KindInterSameUpper
		}
		return KindInterDiffUpper
	}
	oldMacro := tierClass(top.TierOf(old))
	newMacro := tierClass(top.TierOf(new))
	switch {
	case oldMacro && !newMacro:
		return KindIntraMacroMicro
	case !oldMacro && newMacro:
		return KindIntraMicroMacro
	case oldMacro && newMacro:
		// macro↔root within the subtree: classify by direction.
		if top.TierOf(new) > top.TierOf(old) {
			return KindIntraMicroMacro // up-tier
		}
		return KindIntraMacroMicro // down-tier
	default:
		return KindIntraMicroMicro
	}
}

// tierClass reports whether a tier belongs to the macro class.
func tierClass(t topology.Tier) bool {
	return t == topology.TierMacro || t == topology.TierRoot
}

// Policy parameterises the decision engine's three factors (§3.2: "The
// first is the speed of MN, the power of signal from BS is considered
// also, and the last is the resources of BS").
type Policy struct {
	// Selector provides the signal-power factor (hysteresis, floor).
	Selector radio.Selector
	// MacroSpeedMPS is the speed above which the MN prefers macro-tier
	// cells, avoiding the handoff churn of small cells.
	MacroSpeedMPS float64
	// PreferSmallCells makes slow MNs prefer the smallest usable tier
	// (more bandwidth per user, the paper's micro-cell rationale).
	PreferSmallCells bool
}

// DefaultPolicy matches the paper's qualitative description.
func DefaultPolicy() Policy {
	return Policy{
		Selector:         radio.DefaultSelector(),
		MacroSpeedMPS:    12,
		PreferSmallCells: true,
	}
}

// ResourceProbe reports whether a cell can admit the MN's flows — the
// third decision factor. Implementations typically consult
// qos.CellResources.CanAdmit on the target base station.
type ResourceProbe func(cell topology.CellID, handoff bool) bool

// decisionScratch holds the reusable buffers of one decision engine
// caller, so a steady-state Evaluate tick allocates nothing.
type decisionScratch struct {
	usable []radio.Signal
	cands  []radio.Signal
}

// tierFilter selects which tiers a pick round considers.
type tierFilter struct {
	// exact, when not zero, admits only that tier.
	exact topology.Tier
	// macroClass admits macro+root (the fast-MN restriction).
	macroClass bool
	// any admits every tier.
	any bool
}

func (f tierFilter) admits(t topology.Tier) bool {
	switch {
	case f.any:
		return true
	case f.macroClass:
		return tierClass(t)
	default:
		return t == f.exact
	}
}

// choose picks the cell the MN should camp on. It returns
// topology.NoCell when nothing is usable. Mobile keeps one
// decisionScratch per MN so the per-tick decision allocates nothing.
//
// Order of consideration:
//  1. Signal: discard unusable cells (out of range or under the floor).
//  2. Speed: fast MNs restrict to macro-class tiers when one is usable.
//  3. Resources: discard cells that cannot admit the MN, falling back to
//     the next tier (the paper's "turn to macro-cell for a handoff
//     request" when the micro-cell has no bandwidth, and the reverse in
//     Fig 3.2).
//  4. Hysteresis: keep the current cell unless the winner beats it by the
//     selector margin.
func (sc *decisionScratch) choose(top *topology.Topology, current topology.CellID,
	signals []radio.Signal, speedMPS float64, probe ResourceProbe, pol Policy) topology.CellID {

	usable := sc.usable[:0]
	for _, s := range signals {
		if !s.InRange || s.RSSIDBm < pol.Selector.MinRSSIDBm {
			continue
		}
		if probe != nil && !probe(topology.CellID(s.Cell), current != topology.NoCell) {
			continue
		}
		usable = append(usable, s)
	}
	sc.usable = usable
	if len(usable) == 0 {
		return topology.NoCell
	}

	if speedMPS >= pol.MacroSpeedMPS {
		// Fast MN: macro class if possible, otherwise whatever works.
		if c := sc.pick(top, current, pol, tierFilter{macroClass: true}); c != topology.NoCell {
			return c
		}
		return sc.pick(top, current, pol, tierFilter{any: true})
	}
	if pol.PreferSmallCells {
		// Slow MN: smallest tier outward. Within a tier the selector's
		// hysteresis still applies.
		for _, tier := range []topology.Tier{topology.TierPico, topology.TierMicro, topology.TierMacro, topology.TierRoot} {
			if c := sc.pick(top, current, pol, tierFilter{exact: tier}); c != topology.NoCell {
				return c
			}
		}
		return topology.NoCell
	}
	return sc.pick(top, current, pol, tierFilter{any: true})
}

// pick runs the selector over the usable cells admitted by filter.
func (sc *decisionScratch) pick(top *topology.Topology, current topology.CellID,
	pol Policy, filter tierFilter) topology.CellID {

	cands := sc.cands[:0]
	for _, s := range sc.usable {
		if filter.admits(top.TierOf(topology.CellID(s.Cell))) {
			cands = append(cands, s)
		}
	}
	sc.cands = cands
	if len(cands) == 0 {
		return topology.NoCell
	}
	cur := int(topology.NoCell)
	if current != topology.NoCell && filter.admits(top.TierOf(current)) {
		cur = int(current)
	}
	return topology.CellID(pol.Selector.Best(cur, cands))
}
