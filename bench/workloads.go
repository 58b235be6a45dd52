package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/degrade"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/topology"
)

// cell is one core.Run scenario of a workload. When dimension is set the
// arena is planned by capacity.New for cfg.NumMNs MNs of *cfg.Fleet, on
// the clock, and the plan is attached before the run.
type cell struct {
	cfg       core.Config
	dimension bool
}

// workload is a fixed list of cells plus the correctness checks its
// outputs must pass. traffic workloads must carry data; mobile workloads
// must hand off.
type workload struct {
	name    string
	traffic bool
	mobile  bool
	// cells builds the workload for a base seed; cell i gets seed+i.
	// scale multiplies every population (1 in every measured run; tests
	// pass a small value to run the same shapes quickly).
	cells func(seed int64, scale float64) []cell
}

// workloads is the benchmark's fixed set, in round-robin order. Each
// stresses different layers; BENCHMARK.json and README.md record why
// each was chosen and which layer changes it should show.
var workloads = []workload{
	{
		name:    "fleet-10k",
		traffic: true, mobile: true,
		cells: func(seed int64, scale float64) []cell {
			return fleetCell(seed, scaled(10000, scale), 2*time.Second)
		},
	},
	{
		name:    "media-1k",
		traffic: true, mobile: true,
		cells: func(seed int64, scale float64) []cell {
			return fleetCell(seed, scaled(1000, scale), 20*time.Second)
		},
	},
	{
		name:   "handoff-4k",
		mobile: true,
		cells:  handoffCells,
	},
	{
		name:    "storm-800",
		traffic: true, mobile: true,
		cells: stormCells,
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns n*scale rounded, at least 1.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// fleetCell is one cell of n MNs of the default fleet mix on a
// dimensioned arena with a private packet arena (the E9/E10 shape).
func fleetCell(seed int64, n int, d time.Duration) []cell {
	spec := fleet.DefaultSpec()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = d
	cfg.NumMNs = n
	cfg.Fleet = &spec
	cfg.PacketArena = true
	return []cell{{cfg: cfg, dimension: true}}
}

// handoffCells runs every scheme on the same homogeneous street-grid
// population with no traffic, on the default two-root layout that gives
// Mobile IP several foreign agents to move between.
func handoffCells(seed int64, scale float64) []cell {
	var cells []cell
	for i, scheme := range core.Schemes() {
		cfg := core.DefaultConfig()
		cfg.Seed = seed + int64(i)
		cfg.Duration = 30 * time.Second
		cfg.Scheme = scheme
		cfg.Topology = topology.DefaultConfig()
		cfg.NumMNs = scaled(4000, scale)
		cfg.Mobility = core.MobilityManhattan
		cfg.SpeedMPS = 20
		cfg.Traffic = core.TrafficConfig{}
		cfg.MeasureWorkers = 2
		cells = append(cells, cell{cfg: cfg})
	}
	return cells
}

// stormCells is the E14 storm cell at 800 MNs, without and with the
// degradation policy — the settings of the E14 matrix cell (dimensioned
// hotspot crowd, auth on at 2500 ns per MHAE operation, telemetry every
// Duration/100).
func stormCells(seed int64, scale float64) []cell {
	storm, err := faults.ProfileByName("storm")
	if err != nil {
		panic(err) // the faults package pins its standard profiles
	}
	var cells []cell
	for i, graceful := range []bool{false, true} {
		spec := experiments.DegradationSpec()
		cfg := core.DefaultConfig()
		cfg.Seed = seed + int64(i)
		cfg.Duration = 10 * time.Second
		cfg.NumMNs = scaled(800, scale)
		cfg.Fleet = &spec
		cfg.PacketArena = true
		cfg.AuthEnabled = true
		cfg.AuthCPUCostNS = 2500
		cfg.Faults = storm.Plan
		cfg.Obs = &obs.Config{Capacity: 1 << 17, SampleInterval: cfg.Duration / 100}
		if graceful {
			l := degrade.DefaultLadderConfig()
			b := degrade.DefaultBreakerConfig()
			cfg.Degrade = &core.DegradeConfig{Ladder: &l, Breaker: &b}
		}
		cells = append(cells, cell{cfg: cfg, dimension: true})
	}
	return cells
}
