// Command mmscale runs every experiment. With -suite it runs the E1–E8
// suite, one table per figure or claim of the paper (-only narrows it to
// one experiment). Otherwise it runs a population-scale matrix: the E9 scale
// sweep (heterogeneous fleet workloads swept across mobile-node
// populations and mobility-management schemes, reporting a per-profile
// QoE table) and, with -dimension, the E10 capacity×population matrix
// (every population run on the fixed seed topology and again on a
// demand-dimensioned arena, reporting reason-coded admission outcomes
// and per-tier occupancy alongside QoE). With -faults it runs the E11
// resilience matrix instead: deterministic fault plans (station outages,
// backbone degradation, regional radio fade) injected into every scheme,
// reporting handoff loss, session survival, signalling load and
// time-to-90%-re-registered recovery. With -closedloop it runs the E13
// closed-loop matrix: a hotspot crowd swept open-loop and again with
// the QoE feedback loop armed (elastic admission budget shifting plus
// survival-dip pre-paging), against each fault profile. With -degrade it
// runs the E14 degradation matrix: a three-class crowd swept over the
// cliff (no policy) and again with graceful degradation armed (the
// class-priority admission ladder, video rate adaptation, and the
// registration-storm breaker), against each fault profile.
//
// Each mode starts from its experiment's Default* matrix; only the axis
// flags given on the command line override it. A flag the selected mode
// does not read is rejected rather than silently ignored.
//
// Scale runs are bounded-memory by construction: each scenario owns a
// private packet arena and per-profile metrics are streaming aggregates,
// so peak heap tracks the population and topology, never the packet
// count.
//
// Example:
//
//	mmscale -suite                              # E1–E8, full length
//	mmscale -suite -scale 0.1                   # 10x shorter scenarios
//	mmscale -suite -only E6 -reps 5 -seed 42    # one experiment, 5 replications per cell
//	mmscale                                     # E9: 500 → 10k MNs, every scheme
//	mmscale -mns 500,1000,2000                  # the reduced E9 sweep
//	mmscale -mns 5000 -schemes multitier-rsmc   # one cell at scale
//	mmscale -mns 500,2000 -reps 3 -seed 42      # error bars
//	mmscale -fleet pedestrian-voice=80,vehicular-video=20
//	mmscale -signalling                         # per-profile location updates + pages
//	mmscale -dimension                          # E10: fixed vs dimensioned matrix
//	mmscale -dimension -mns 500,1000 -schemes multitier-rsmc  # the reduced E10 matrix
//	mmscale -dimension -density dense -headroom 1.5
//	mmscale -measureworkers 0                   # parallel measurement phase (0 = GOMAXPROCS)
//	mmscale -dimension -rootocc                 # per-root occupancy column (load balance)
//	mmscale -faults                             # E11: resilience matrix, all fault profiles
//	mmscale -faults -faultprofiles root-outage  # one fault profile
//	mmscale -faults -trace -sample 250ms -traceout traces/  # one JSONL trace per scenario
//	mmscale -closedloop                         # E13: open vs closed QoE feedback loop
//	mmscale -closedloop -trace -traceout traces/  # with alert traces (mmtrace -alerts)
//	mmscale -degrade                            # E14: cliff vs graceful degradation
//	mmscale -degrade -faultprofiles storm       # storm rows only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mmscale:", err)
		os.Exit(1)
	}
}

// axes holds the parsed matrix flags; set names the flags given on the
// command line, and only those override a mode's Default* matrix.
type axes struct {
	set                 map[string]bool
	pops                []int
	schemes             []core.Scheme
	duration, sample    time.Duration
	spec                fleet.Spec
	profiles            []faults.NamedPlan
	signalling, rootocc bool
	planner             capacity.PlannerConfig
	only                string
}

// override replaces the axes that were set explicitly. A mode passes nil
// for an axis its matrix lacks; the mode's reads list keeps that flag
// from being set.
func (a axes) override(pops *[]int, schemes *[]core.Scheme, dur *time.Duration, spec *fleet.Spec, sample *time.Duration) {
	if a.set["mns"] {
		*pops = a.pops
	}
	if a.set["schemes"] {
		*schemes = a.schemes
	}
	if a.set["duration"] {
		*dur = a.duration
	}
	if a.set["fleet"] {
		*spec = a.spec
	}
	if a.set["sample"] && sample != nil {
		*sample = a.sample
	}
}

// mode is one run mmscale makes: the flag selecting it ("" for the
// default E9 sweep), the flags it reads beyond the common ones, and how
// it builds and runs its experiments. run returns the tables to print —
// one per matrix mode, one per experiment of the suite — and the shape
// that ran, for the summary line.
type mode struct {
	flag, usage string
	reads       []string
	run         func(experiments.Options, axes) (tables []*experiments.Table, shape string, err error)
}

var modes = []mode{
	{"", "", []string{"mns", "schemes", "duration", "fleet", "signalling"},
		func(opt experiments.Options, a axes) ([]*experiments.Table, string, error) {
			m := experiments.DefaultScaleSweep()
			a.override(&m.Populations, &m.Schemes, &m.Duration, &m.Spec, nil)
			m.PerProfileSignalling = a.signalling
			tbl, err := experiments.E9ScaleSweep(opt, m)
			return matrixRan(tbl, err, len(m.Populations), len(m.Schemes))
		}},
	{"suite", "run the E1–E8 experiment suite: one table per figure or claim of the paper",
		[]string{"only"},
		func(opt experiments.Options, a axes) ([]*experiments.Table, string, error) {
			var out []*experiments.Table
			for _, e := range suite {
				if a.only != "" && e.id != a.only {
					continue
				}
				tbl, err := e.run(opt)
				if err != nil {
					return out, "", fmt.Errorf("%s: %w", e.id, err)
				}
				out = append(out, tbl)
			}
			return out, fmt.Sprintf("%d experiment(s)", len(out)), nil
		}},
	{"dimension", "run the E10 capacity matrix: fixed vs dimensioned topology",
		[]string{"mns", "schemes", "duration", "fleet", "rootocc", "density", "headroom"},
		func(opt experiments.Options, a axes) ([]*experiments.Table, string, error) {
			m := experiments.DefaultCapacityMatrix()
			a.override(&m.Populations, &m.Schemes, &m.Duration, &m.Spec, nil)
			m.Planner, m.PerRootOccupancy = a.planner, a.rootocc
			tbl, err := experiments.E10CapacityMatrix(opt, m)
			return matrixRan(tbl, err, len(m.Populations), len(m.Schemes))
		}},
	{"faults", "run the E11 resilience matrix: deterministic fault injection x scheme",
		[]string{"mns", "schemes", "duration", "fleet", "faultprofiles"},
		func(opt experiments.Options, a axes) ([]*experiments.Table, string, error) {
			m := experiments.DefaultResilienceMatrix()
			a.override(&m.Populations, &m.Schemes, &m.Duration, &m.Spec, nil)
			m.Profiles = a.profiles
			tbl, err := experiments.E11Resilience(opt, m)
			return matrixRan(tbl, err, len(m.Populations), len(m.Schemes))
		}},
	{"closedloop", "run the E13 closed-loop matrix: open vs closed QoE feedback loop x fault profile",
		[]string{"mns", "duration", "fleet", "sample"},
		func(opt experiments.Options, a axes) ([]*experiments.Table, string, error) {
			m := experiments.DefaultClosedLoopMatrix()
			a.override(&m.Populations, nil, &m.Duration, &m.Spec, &m.SampleInterval)
			tbl, err := experiments.E13ClosedLoop(opt, m)
			return matrixRan(tbl, err, len(m.Populations), 1)
		}},
	{"degrade", "run the E14 degradation matrix: cliff vs graceful degradation x fault profile",
		[]string{"mns", "duration", "fleet", "sample", "faultprofiles"},
		func(opt experiments.Options, a axes) ([]*experiments.Table, string, error) {
			m := experiments.DefaultDegradationMatrix()
			a.override(&m.Populations, nil, &m.Duration, &m.Spec, &m.SampleInterval)
			m.Profiles = a.profiles
			tbl, err := experiments.E14Degradation(opt, m)
			return matrixRan(tbl, err, len(m.Populations), 1)
		}},
}

// matrixRan is a matrix mode's result: its one table and the population
// and scheme axes that ran.
func matrixRan(tbl *experiments.Table, err error, pops, schemes int) ([]*experiments.Table, string, error) {
	if err != nil {
		return nil, "", err
	}
	return []*experiments.Table{tbl}, fmt.Sprintf("%d population(s) x %d scheme(s)", pops, schemes), nil
}

// experiment is one entry of the suite.
type experiment struct {
	id  string
	run func(experiments.Options) (*experiments.Table, error)
}

// suite is the E1–E8 experiment suite in table order.
var suite = []experiment{
	{"E1", experiments.E1MobileIPProcedures},
	{"E2", experiments.E2CellularIPHandoff},
	{"E3", experiments.E3LocationManagement},
	{"E4", experiments.E4InterDomain},
	{"E5", experiments.E5IntraDomain},
	{"E6", experiments.E6SchemeComparison},
	{"E7", experiments.E7ResourceSwitching},
	{"E8", experiments.E8PagingAndRSMCLoad},
}

// common are the flags every mode reads; with -trace, sample and
// traceout are read too.
var common = []string{"seed", "scale", "reps", "parallel", "measureworkers", "memstats", "trace",
	"suite", "dimension", "faults", "closedloop", "degrade"}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mmscale", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "base seed")
		scale    = fs.Float64("scale", 1.0, "duration multiplier (e.g. 0.1 for quick runs)")
		reps     = fs.Int("reps", 1, "replications per cell (cells become mean±std)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "scenario workers")
		measurew = fs.Int("measureworkers", 1, "per-scenario measurement workers (0 = GOMAXPROCS); results are byte-identical for any count")
		memstats = fs.Bool("memstats", false, "print heap statistics after the sweep")
		trace    = fs.Bool("trace", false, "record a deterministic event trace of every scenario (replication 0)")
		traceout = fs.String("traceout", "traces", "with -trace, directory receiving one JSONL trace per scenario")
		a        = axes{set: map[string]bool{}}
	)
	fs.String("mns", "", "comma-separated population axis (default: the mode's matrix)")
	fs.String("schemes", "", "comma-separated schemes to sweep (default: every scheme; E9–E11 only)")
	fs.String("fleet", "", "population mix as name=share,... of built-in profiles (default: the mode's mix)")
	fs.String("faultprofiles", "", "with -faults or -degrade, comma-separated fault profiles to inject (default: the mode's standard profiles)")
	fs.StringVar(&a.only, "only", "", "with -suite, run a single experiment (E1..E8)")
	fs.DurationVar(&a.duration, "duration", 0, "virtual span of each scenario (default: the mode's matrix)")
	fs.DurationVar(&a.sample, "sample", 0, "with -trace, time-series sampling cadence (0 = events only); with -closedloop or -degrade also the telemetry cadence (0 = duration/100)")
	fs.BoolVar(&a.signalling, "signalling", false, "add per-profile location-update and paging columns to the E9 sweep (E10 always includes them)")
	fs.BoolVar(&a.rootocc, "rootocc", false, "with -dimension, add the per-root occupancy load-balance column")
	fs.StringVar((*string)(&a.planner.Density), "density", string(capacity.DensityUrban), "with -dimension, dimensioning density preset (sparse|urban|dense)")
	fs.Float64Var(&a.planner.Headroom, "headroom", capacity.DefaultHeadroom, "with -dimension, dimensioning capacity headroom factor (>= 1)")
	selected := map[string]*bool{}
	for _, m := range modes[1:] {
		selected[m.flag] = fs.Bool(m.flag, false, m.usage)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	md := modes[0]
	for _, m := range modes[1:] {
		if *selected[m.flag] {
			if md.flag != "" {
				return fmt.Errorf("-%s and -%s are mutually exclusive", md.flag, m.flag)
			}
			md = m
		}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		a.set[f.Name] = true
		var ferr error
		switch v := f.Value.String(); {
		case !slices.Contains(md.reads, f.Name) && !slices.Contains(common, f.Name) &&
			!(*trace && (f.Name == "sample" || f.Name == "traceout")):
			ferr = fmt.Errorf("not read by the selected mode")
		case f.Name == "mns":
			a.pops, ferr = parseInts(v)
		case f.Name == "schemes":
			a.schemes, ferr = parseSchemes(v)
		case f.Name == "fleet":
			a.spec, ferr = fleet.ParseSpec(v)
		case f.Name == "faultprofiles":
			a.profiles, ferr = parseFaultProfiles(v)
		case f.Name == "only":
			if !slices.ContainsFunc(suite, func(e experiment) bool { return e.id == v }) {
				ferr = fmt.Errorf("unknown experiment %q", v)
			}
		}
		if ferr != nil && err == nil {
			err = fmt.Errorf("-%s: %w", f.Name, ferr)
		}
	})
	if err != nil {
		return err
	}
	mw := *measurew
	if mw == 0 {
		mw = runtime.GOMAXPROCS(0)
	}
	opt := experiments.Options{Seed: *seed, TimeScale: *scale, Reps: *reps, Parallel: *parallel,
		MeasureWorkers: mw}
	if *trace {
		opt.Obs = &obs.Config{SampleInterval: a.sample, PacketSampleEvery: 64}
		opt.TraceDir = *traceout
	}
	if err := opt.Validate(); err != nil {
		return err
	}

	start := time.Now()
	tables, shape, err := md.run(opt, a)
	for _, tbl := range tables {
		fmt.Fprintln(stdout, tbl)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mmscale: %s, %d rep(s), %d worker(s), %d measure worker(s) in %v\n",
		shape, *reps, *parallel, mw, time.Since(start).Round(time.Millisecond))
	if *memstats {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		fmt.Fprintf(stderr, "mmscale: heap-alloc=%dMiB heap-sys=%dMiB total-alloc=%dMiB gc=%d\n",
			m.HeapAlloc>>20, m.HeapSys>>20, m.TotalAlloc>>20, m.NumGC)
	}
	return nil
}

// parseInts parses the population axis. The axis rules (positive,
// strictly ascending) belong to the experiments' matrix validator, which
// rejects a bad axis before any scenario runs.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad population %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFaultProfiles resolves a comma-separated profile-name list against
// the standard fault profiles.
func parseFaultProfiles(s string) ([]faults.NamedPlan, error) {
	var out []faults.NamedPlan
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		np, err := faults.ProfileByName(part)
		if err != nil {
			return nil, err
		}
		out = append(out, np)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fault profiles")
	}
	return out, nil
}

func parseSchemes(s string) ([]core.Scheme, error) {
	var out []core.Scheme
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sc := core.Scheme(part)
		if !slices.Contains(core.Schemes(), sc) {
			return nil, fmt.Errorf("unknown scheme %q", part)
		}
		out = append(out, sc)
	}
	return out, nil
}
