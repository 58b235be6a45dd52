package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/multitier"
	"repro/internal/runner"
	"repro/internal/topology"
)

// CapacityMatrix parameterises E10: the capacity×population matrix that
// separates mobility-management cost from raw capacity exhaustion. Every
// population runs twice — once on the fixed seed topology and once on a
// demand-dimensioned arena — under every scheme, so the fixed column
// shows where the 13-cell layout saturates and the dimensioned column
// shows what the schemes cost when the hierarchy is actually sized for
// the load.
type CapacityMatrix struct {
	// Populations is the ascending MN-count axis (same validation rules
	// as ScaleSweep).
	Populations []int
	// Schemes are compared at each (population, topology) cell.
	Schemes []core.Scheme
	// Duration is the virtual span of each scenario.
	Duration time.Duration
	// Spec is the population mix; the dimensioning planner sizes arenas
	// from this same mix, so supply and demand use one demand model.
	Spec fleet.Spec
	// Planner tunes the dimensioned column (zero value = documented
	// planner defaults).
	Planner capacity.PlannerConfig
	// PerRootOccupancy adds a load-balance column: the spread of mean
	// channel occupancy across the grid's root subtrees, showing where
	// the dimensioning headroom factor is actually spent. Off by default
	// so the pinned golden table keeps its exact bytes; cmd/mmscale
	// -rootocc turns it on.
	PerRootOccupancy bool
}

// DefaultCapacityMatrix is the full matrix cmd/mmscale -dimension runs:
// 500 → 10k MNs, fixed vs dimensioned, every scheme, default urban mix.
func DefaultCapacityMatrix() CapacityMatrix {
	return CapacityMatrix{
		Populations: []int{500, 1000, 2000, 5000, 10000},
		Schemes:     core.Schemes(),
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
}

// E10CapacityMatrix measures admission outcomes, utilization and QoE
// across the capacity×population matrix. The honest-scaling claim it
// pins: on the fixed topology the multi-tier scheme's capacity-shed rate
// explodes with the population (the arena is exhausted), while on the
// dimensioned arena the shed rate stays low and what remains is the
// scheme's own mobility-management cost.
//
// Like E9 it is not part of the E1–E8 suite: its cost axis is population
// and topology size, so it is invoked deliberately (cmd/mmscale -dimension,
// BenchmarkE10CapacityMatrix, or the pinned golden test).
func E10CapacityMatrix(opt Options, m CapacityMatrix) (*Table, error) {
	return runMatrix(opt, m.matrix(), m.table)
}

// matrix runs every population on the fixed seed topology and again on
// its dimensioned arena.
func (m CapacityMatrix) matrix() matrix {
	return matrix{num: 10, pops: m.Populations, schemes: m.Schemes, dur: m.Duration, spec: m.Spec,
		planner: &m.Planner, variants: []string{"fixed", "dimensioned"},
		vary: func(cfg *core.Config, topo string) {
			if topo == "fixed" {
				cfg.Capacity = nil
			}
		}}
}

func (m CapacityMatrix) table(cells []cell, res []runner.JobResult) *Table {
	header := []string{"MNs", "topology", "cells", "scheme",
		"admitted", "shed-capacity", "shed-policy", "shed rate",
		"loss", "mean delay", "handoffs/MN", "micro occ mean/max", "loc upd/MN", "pages"}
	if m.PerRootOccupancy {
		header = append(header, "root occ spread")
	}
	t := &Table{
		ID:     "E10",
		Title:  fmt.Sprintf("Capacity x population matrix: fixed vs dimensioned topology (mix %s)", m.Spec.String()),
		Header: header,
	}
	for i, r := range res {
		c := cells[i]
		topoCells := oneRoot().CellCount()
		if c.variant == "dimensioned" {
			topoCells = c.dim.Topology.CellCount()
		}
		sig := fleetSignallingCells(r, m.Spec)
		row := []string{fmtI(c.n), c.variant, fmtI(topoCells), string(c.scheme),
			fmtStatI(r.Counter("tier.admission.admitted")),
			fmtStatI(r.Counter("tier.admission.shed_capacity")),
			fmtStatI(r.Counter("tier.admission.shed_policy")),
			fmtStatPct(r.Stat(shedRate)),
			fmtStatPct(r.LossRate()),
			fmtStatDur(r.MeanLatency()),
			fmtStatF(r.Stat(func(res *core.Result) float64 {
				return float64(res.Summary.Handoffs) / float64(res.Config.NumMNs)
			})),
			microOccupancy(r),
			sig[0], sig[1]}
		if m.PerRootOccupancy {
			row = append(row, rootOccupancySpread(r))
		}
		t.AddRow(row...)
	}
	for i, c := range cells {
		if i == 0 || cells[i-1].n != c.n {
			t.AddNote("plan @%d: %s", c.n, c.dim)
		}
	}
	t.AddNote("shed rate = shed-capacity / admission decisions; only multitier-rsmc runs admission control, so flat-scheme rows read 0 (they deliver into congestion instead of shedding)")
	t.AddNote("a fixed-topology shed rate that grows with MNs while the dimensioned rate stays flat means earlier sweeps measured capacity exhaustion, not scheme cost")
	if m.PerRootOccupancy {
		t.AddNote("root occ spread = min..max of per-root mean channel occupancy (first replication): a wide spread means the headroom factor is spent on hot roots while others idle")
	}
	return t
}

// shedRate is the capacity-shed fraction of all reason-coded admission
// decisions in one run.
func shedRate(res *core.Result) float64 {
	adm := res.Registry.Counter("tier.admission.admitted").Value()
	shed := res.Registry.Counter("tier.admission.shed_capacity").Value()
	pol := res.Registry.Counter("tier.admission.shed_policy").Value()
	total := adm + shed + pol
	if total == 0 {
		return 0
	}
	return float64(shed) / float64(total)
}

// rootOccupancySpread renders the load-balance picture of one cell: the
// lowest and highest per-root mean channel occupancy across the grid's
// root subtrees (first-replication values, like microOccupancy). Flat
// schemes have no admission model, so their rows read "-"; a one-root
// arena degenerates to a single value.
func rootOccupancySpread(r runner.JobResult) string {
	first := r.First()
	if first == nil {
		return ""
	}
	lo, hi, roots := 0.0, 0.0, 0
	for _, name := range first.Registry.Names() {
		if !strings.HasPrefix(name, multitier.RootOccupancyPrefix) {
			continue
		}
		s := first.Registry.Sample(name)
		if s.Count() == 0 {
			continue
		}
		m := s.Mean()
		if roots == 0 || m < lo {
			lo = m
		}
		if roots == 0 || m > hi {
			hi = m
		}
		roots++
	}
	if roots == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%..%.0f%% (%d roots)", 100*lo, 100*hi, roots)
}

// microOccupancy renders the micro tier's streaming occupancy sample as
// "mean/max" percentages (first-replication values; occupancy is a
// distribution, not a mean±std scalar).
func microOccupancy(r runner.JobResult) string {
	first := r.First()
	if first == nil {
		return ""
	}
	s := first.Registry.Sample("tier.occupancy." + topology.TierMicro.String())
	if s.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%/%.0f%%", 100*s.Mean(), 100*s.Max())
}
