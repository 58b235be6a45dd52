// Package radio models the air interface: log-distance path loss with
// log-normal shadowing, RSSI/SNR computation, an SNR→loss mapping for the
// wireless hop, and best-cell selection with hysteresis.
//
// The paper's handoff strategy weighs "the power of signal from BS" as one
// of its three decision factors; this package supplies that signal. The
// absolute calibration is unimportant for reproducing the paper — what
// matters is that signal ordering between base stations flips where
// coverage areas overlap, which any monotone path-loss model provides.
package radio

import (
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/simtime"
)

// Params characterises one transmitter class (pico/micro/macro base
// stations differ in power and range).
type Params struct {
	// TxPowerDBm is the transmit power.
	TxPowerDBm float64
	// RefLossDB is the path loss at the 1 m reference distance.
	RefLossDB float64
	// Exponent is the path-loss exponent (2 free space … 4 dense urban).
	Exponent float64
	// ShadowSigmaDB is the log-normal shadowing standard deviation.
	ShadowSigmaDB float64
	// NoiseFloorDBm is the receiver noise floor for SNR computation.
	NoiseFloorDBm float64
	// AirDelay is the one-way air-interface latency (media access +
	// propagation; propagation itself is negligible at cell scales).
	AirDelay time.Duration
	// MaxRange is the nominal coverage radius in metres; beyond it the
	// topology treats the cell as out of coverage regardless of RSSI.
	MaxRange float64
}

// Transmitter-class presets. Values are representative of early-2000s
// cellular deployments; only their ordering matters for the experiments.
func MacroParams() Params {
	return Params{
		TxPowerDBm:    43, // ~20 W
		RefLossDB:     34,
		Exponent:      2.8, // elevated tower: less clutter than street level
		ShadowSigmaDB: 8,
		NoiseFloorDBm: -104,
		AirDelay:      8 * time.Millisecond,
		MaxRange:      5000,
	}
}

// MicroParams returns the micro-cell transmitter preset.
func MicroParams() Params {
	return Params{
		TxPowerDBm:    30, // ~1 W
		RefLossDB:     38,
		Exponent:      3.0,
		ShadowSigmaDB: 6,
		NoiseFloorDBm: -104,
		AirDelay:      4 * time.Millisecond,
		MaxRange:      800,
	}
}

// PicoParams returns the pico-cell (in-building) transmitter preset.
func PicoParams() Params {
	return Params{
		TxPowerDBm:    20, // 100 mW
		RefLossDB:     45, // in-building: wall penetration raises reference loss
		Exponent:      3.0,
		ShadowSigmaDB: 4,
		NoiseFloorDBm: -104,
		AirDelay:      2 * time.Millisecond,
		MaxRange:      100,
	}
}

// RSSI returns a shadowed RSSI sample at distance d, drawing shadowing
// from rng. A nil rng yields the mean (deterministic mode for tests).
func (p Params) RSSI(d float64, rng *simtime.Rand) float64 {
	b := p.Budget()
	return b.RSSI(d, rng)
}

// Budget is the part of Params one RSSI sample reads, flattened to four
// words: a per-tick measurement over many cells reads these instead of
// copying whole Params.
type Budget struct {
	TxPowerDBm, RefLossDB float64
	// Exp10 is ten times the path-loss exponent, the factor of log10 d.
	Exp10         float64
	ShadowSigmaDB float64
}

// Budget returns p's link budget.
func (p Params) Budget() Budget {
	return Budget{TxPowerDBm: p.TxPowerDBm, RefLossDB: p.RefLossDB, Exp10: 10 * p.Exponent, ShadowSigmaDB: p.ShadowSigmaDB}
}

// MeanRSSI returns the shadowing-free received power in dBm at distance
// d metres, TxPowerDBm − (RefLossDB + Exp10·log10 d). Distances under one
// metre clamp to the reference distance.
//
//mmlint:noalloc
func (b *Budget) MeanRSSI(d float64) float64 {
	if d < 1 {
		d = 1
	}
	pathLoss := b.RefLossDB + b.Exp10*math.Log10(d)
	return b.TxPowerDBm - pathLoss
}

// RSSI returns a shadowed RSSI sample at distance d: MeanRSSI plus one
// shadowing draw from rng. A nil rng or a zero deviation yields the mean.
//
//mmlint:noalloc
func (b *Budget) RSSI(d float64, rng *simtime.Rand) float64 {
	mean := b.MeanRSSI(d)
	if rng == nil || b.ShadowSigmaDB == 0 {
		return mean
	}
	return mean + rng.Normal(0, b.ShadowSigmaDB)
}

// Signal is one measured candidate cell: 16 bytes, so a tick's signals
// pack four to a cache line.
type Signal struct {
	// Cell is an opaque identifier meaningful to the caller (topology
	// cell index).
	Cell int32
	// InRange reports whether the measurement position lies inside the
	// transmitter's nominal MaxRange.
	InRange bool
	// RSSIDBm is the measured signal strength.
	RSSIDBm float64
}

// Selector chooses the serving cell from measurements, with hysteresis to
// suppress ping-pong handoffs at coverage boundaries.
type Selector struct {
	// HysteresisDB is how much a challenger must beat the incumbent by.
	HysteresisDB float64
	// MinRSSIDBm is the usability floor; weaker cells are ignored.
	MinRSSIDBm float64
}

// DefaultSelector matches common handoff practice: 4 dB hysteresis,
// -95 dBm sensitivity.
func DefaultSelector() Selector {
	return Selector{HysteresisDB: 4, MinRSSIDBm: -95}
}

// NoCell is returned by Best when no candidate is usable.
const NoCell = -1

// Best returns the cell to camp on given the current serving cell
// (NoCell if none) and candidate measurements. The incumbent is kept
// unless some challenger exceeds it by the hysteresis margin or the
// incumbent has become unusable.
func (s Selector) Best(current int, candidates []Signal) int {
	var curSig *Signal
	bestIdx := -1
	bestRSSI := math.Inf(-1)
	for i := range candidates {
		c := &candidates[i]
		if int(c.Cell) == current {
			curSig = c
		}
		if !c.InRange || c.RSSIDBm < s.MinRSSIDBm {
			continue
		}
		if c.RSSIDBm > bestRSSI {
			bestRSSI = c.RSSIDBm
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		// Nothing usable: stick with the incumbent if it still exists at
		// all (degraded service) rather than dropping immediately.
		if curSig != nil && curSig.InRange {
			return current
		}
		return NoCell
	}
	best := candidates[bestIdx]
	if current == NoCell || curSig == nil || !curSig.InRange || curSig.RSSIDBm < s.MinRSSIDBm {
		return int(best.Cell)
	}
	if int(best.Cell) != current && best.RSSIDBm >= curSig.RSSIDBm+s.HysteresisDB {
		return int(best.Cell)
	}
	return current
}

// MeasureAt computes the Signal for a transmitter at txPos with the given
// params, observed from rxPos. Runs measure through topology's
// MeasureInto; the topology and radio tests keep MeasureAt as its
// reference.
//
//mmlint:testref reference result for Topology.MeasureInto in the topology tests
func MeasureAt(cell int, p Params, txPos, rxPos geo.Point, rng *simtime.Rand) Signal {
	d := txPos.DistanceTo(rxPos)
	return Signal{
		Cell:    int32(cell),
		RSSIDBm: p.RSSI(d, rng),
		InRange: d <= p.MaxRange,
	}
}
