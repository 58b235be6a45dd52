package experiments

import (
	"fmt"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
)

// matrix is the shape the population-scale experiments (E9–E14) share:
// a population axis, an optional fault-profile axis, an optional variant
// axis and a scheme axis. Each exported parameter type describes one
// matrix; this is the single place that validates, dimensions and
// expands them into jobs.
type matrix struct {
	num     int
	pops    []int
	schemes []core.Scheme
	dur     time.Duration
	spec    fleet.Spec
	// profiles is the fault axis; nil runs one fault-free row group.
	profiles []faults.NamedPlan
	// planner, when set, dimensions every population; each cell runs on
	// the population's arena unless its variant clears cfg.Capacity.
	planner *capacity.PlannerConfig
	// auth arms MHAE-signed registrations on every cell.
	auth bool
	// obs pins telemetry on every cell at sample (0 = dur/100), so the
	// variants of a row group record identically.
	obs    bool
	sample time.Duration
	// variants is the variant axis; vary applies the one per-variant
	// change to a cell's config.
	variants []string
	vary     func(cfg *core.Config, variant string)
}

// cell is one job's coordinates in its matrix.
type cell struct {
	n       int
	profile faults.NamedPlan
	variant string
	scheme  core.Scheme
	dim     *capacity.Plan
}

// validate rejects degenerate matrices. The population axis must be
// strictly ascending and positive: duplicates used to silently double
// the run time, and an unsorted axis rendered tables whose rows
// contradicted their own "vs population" framing.
func (m matrix) validate() error {
	if len(m.pops) == 0 {
		return fmt.Errorf("%w: E%d matrix has no populations", ErrBadOptions, m.num)
	}
	if len(m.schemes) == 0 {
		return fmt.Errorf("%w: E%d matrix has no schemes", ErrBadOptions, m.num)
	}
	prev := 0
	for _, n := range m.pops {
		switch {
		case n <= 0:
			return fmt.Errorf("%w: population %d (must be > 0)", ErrBadOptions, n)
		case n == prev:
			return fmt.Errorf("%w: duplicate population %d", ErrBadOptions, n)
		case n < prev:
			return fmt.Errorf("%w: populations must be ascending (%d after %d)", ErrBadOptions, n, prev)
		}
		prev = n
	}
	if m.dur <= 0 {
		return fmt.Errorf("%w: E%d duration %v", ErrBadOptions, m.num, m.dur)
	}
	if m.sample < 0 {
		return fmt.Errorf("%w: negative sample interval %v", ErrBadOptions, m.sample)
	}
	for _, np := range m.profiles {
		if np.Name == "" {
			return fmt.Errorf("%w: unnamed fault profile", faults.ErrBadPlan)
		}
		if np.Plan == nil {
			return fmt.Errorf("%w: profile %q has no plan", faults.ErrBadPlan, np.Name)
		}
		if err := np.Plan.Validate(); err != nil {
			return fmt.Errorf("profile %q: %w", np.Name, err)
		}
	}
	return m.spec.Validate()
}

// expand validates the matrix and lays its jobs out population → fault
// profile → variant → scheme. Every population is dimensioned up front,
// so a degenerate planner config (or a population past the address
// budget) fails before a single scenario runs.
func (m matrix) expand(opt Options) ([]runner.Job, []cell, error) {
	if err := m.validate(); err != nil {
		return nil, nil, err
	}
	profiles, variants := m.profiles, m.variants
	if profiles == nil {
		profiles = []faults.NamedPlan{{}}
	}
	if variants == nil {
		variants = []string{""}
	}
	var jobs []runner.Job
	var cells []cell
	for _, n := range m.pops {
		var dim *capacity.Plan
		if m.planner != nil {
			var err error
			if dim, err = capacity.New(n, m.spec, *m.planner); err != nil {
				return nil, nil, fmt.Errorf("dimensioning %d MNs: %w", n, err)
			}
		}
		for _, np := range profiles {
			for _, v := range variants {
				for _, scheme := range m.schemes {
					c := cell{n, np, v, scheme, dim}
					jobs = append(jobs, runner.Job{Label: c.label(), Config: m.config(opt, c)})
					cells = append(cells, c)
				}
			}
		}
	}
	return jobs, cells, nil
}

// label names a job <scheme>@<n>-MNs[-<profile>][-<variant>]; trace
// files are named after it.
func (c cell) label() string {
	l := fmt.Sprintf("%s@%d-MNs", c.scheme, c.n)
	for _, part := range []string{c.profile.Name, c.variant} {
		if part != "" {
			l += "-" + part
		}
	}
	return l
}

// config assembles one cell's scenario.
func (m matrix) config(opt Options, c cell) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = c.scheme
	cfg.Topology = oneRoot()
	cfg.Duration = opt.scale(m.dur)
	cfg.NumMNs = c.n
	spec := m.spec
	cfg.Fleet = &spec
	cfg.PacketArena = true
	cfg.Capacity = c.dim
	cfg.Faults = c.profile.Plan
	if m.auth {
		cfg.AuthEnabled = true
		cfg.AuthCPUCostNS = defaultAuthCPUCostNS
	}
	if m.obs {
		sample := m.sample
		if sample == 0 {
			sample = m.dur / 100
		}
		// The cadence scales with the run the way fault windows do — as a
		// fraction of the (scaled) duration, not through opt.scale and its
		// 2 s floor, which would leave a scaled-down suite with two samples.
		cfg.Obs = &obs.Config{
			Capacity:       1 << 17,
			SampleInterval: time.Duration(float64(sample) * float64(cfg.Duration) / float64(m.dur)),
		}
	}
	if m.vary != nil {
		m.vary(&cfg, c.variant)
	}
	return cfg
}

// profilesOr returns p, or the matrix's default profiles when p is empty.
func profilesOr(p []faults.NamedPlan, def func() []faults.NamedPlan) []faults.NamedPlan {
	if len(p) == 0 {
		return def()
	}
	return p
}

// runMatrix runs one matrix as its own batch and renders it with table.
func runMatrix(opt Options, m matrix, table func([]cell, []runner.JobResult) *Table) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	jobs, cells, err := m.expand(opt)
	if err != nil {
		return nil, err
	}
	return opt.run(plan{num: m.num, jobs: jobs, render: func(res []runner.JobResult) (*Table, error) {
		return table(cells, res), nil
	}})
}

// defaultAuthCPUCostNS is the modelled CPU spend per MHAE sign/verify
// operation in authenticated matrices: a keyed-hash over a short
// registration message lands in the low microseconds on period hardware,
// and the exact value is inert anyway — it feeds only the mip.auth.cpu_ns
// accounting column, never packet timing.
const defaultAuthCPUCostNS = 2500
