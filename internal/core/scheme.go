package core

import (
	"repro/internal/multitier"
	"repro/internal/topology"
)

// scheme is the one surface the optional layers (Faults, Obs, Control,
// Degrade) drive a built mobility scheme through. Each run* builder
// returns one, so every layer installs once, whatever the scheme. Levers
// only some schemes have are the optional interfaces below, found by
// type assertion; a layer that needs a lever the scheme lacks rejects
// the config with ErrBadConfig.
type scheme interface {
	// stationDown forces the station serving cell out of service:
	// in-flight packets flush with reason-coded drops and served MNs are
	// deregistered. A cell the scheme has no station on is left alone.
	stationDown(cell topology.CellID)
	// stationUp restores the station; registrations rebuild through the
	// protocols' own recovery machinery (retry, reattempt, refresh).
	stationUp(cell topology.CellID)
	// airLoss reports the air-interface loss probability of cell's
	// station; ok is false when the scheme has no station there.
	airLoss(cell topology.CellID) (p float64, ok bool)
	// setAirLoss sets it, for a cell airLoss reported ok.
	setAirLoss(cell topology.CellID, p float64)
	// registered reports whether MN i holds a live registration (HA
	// binding, gateway route, or anchor registration) — the probe behind
	// the recovery, survival and pre-paging metrics.
	registered(i int) bool
	// signalling names the scheme's signalling counters.
	signalling() signalCounters
}

// signalCounters names registry counters the scheme's stats constructors
// pre-register, so reading them never perturbs registry order.
type signalCounters struct {
	// msgs and bytes sum into Summary.SignalingMsgs and SignalingBytes.
	msgs, bytes []string
	// probes are sampled as obs series of the same name.
	probes []string
}

// prePager forces a location refresh on every currently-unregistered
// MN, returning how many signals went out. Control.PrePaging needs it.
type prePager interface {
	prePage() int
}

// regPaced routes the scheme's registrations toward the Home Agent
// through a pacer. Degrade.Breaker needs it.
type regPaced interface {
	setRegPacer(p multitier.RegPacer)
}

// rootScheme has per-root admission budgets. Control.ElasticAdmission
// and Degrade.Ladder need it.
type rootScheme interface {
	// rootNames are the root cell names in fabric order; ri indexes them.
	rootNames() []string
	// microOccupancy is root ri's micro-tier channel occupancy; ok is
	// false when the root has no micro channels.
	microOccupancy(ri int) (u float64, ok bool)
	// shift moves frac of the donor root's per-station channel and
	// bandwidth budgets to the hot root's same-tier stations, returning
	// channels moved.
	shift(hot, donor int, frac float64) int
	// revert undoes every shift recorded toward hot, returning channels
	// returned.
	revert(hot int) int
	// setDegrade installs the admission-ladder hooks on every station.
	setDegrade(h *multitier.DegradeHooks)
}
