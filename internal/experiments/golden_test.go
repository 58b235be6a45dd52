package experiments

import (
	"errors"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/topology"
)

// The goldens pin the byte-exact tables of the E1–E8 suite and of every
// population matrix (E9–E14) at a fixed seed. Their job is to prove that
// engine and harness changes are behaviour-preserving: any change to
// event ordering, rng draw sequence, packet accounting, fault schedules,
// dimensioning or control decisions shows up as a table diff. Each entry
// must render its golden bytes sequentially, on 8 scenario workers and
// with per-scenario measurement workers. Regenerate deliberately with:
//
//	go test ./internal/experiments -run '^TestGolden$' -update-golden
//
// (or '^TestGolden$/E11' for one entry).
var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata goldens from the current engine")

var goldens = []struct {
	name    string
	run     func(Options) (string, error)
	opt     Options
	path    string
	workers []int // measurement-worker counts the golden must survive
}{
	{"suite", func(o Options) (string, error) {
		tables, err := All(o)
		var b strings.Builder
		for _, tbl := range tables {
			b.WriteString(tbl.String() + "\n")
		}
		return b.String(), err
	}, shortOptions(2), "testdata/golden_suite.txt", []int{2, 5}},
	{"E9", golden(E9ScaleSweep, goldenE9Sweep()),
		shortOptions(2), "testdata/golden_e9.txt", []int{4}},
	{"E10", golden(E10CapacityMatrix, goldenE10Matrix()),
		shortOptions(1), "testdata/golden_e10.txt", []int{4}},
	{"E11", golden(E11Resilience, goldenE11Matrix()),
		recoveryOptions(), "testdata/golden_e11.txt", []int{4}},
	{"E13", golden(E13ClosedLoop, goldenE13Matrix()),
		recoveryOptions(), "testdata/golden_e13.txt", []int{4}},
	{"E14", golden(E14Degradation, goldenE14Matrix()),
		recoveryOptions(), "testdata/golden_e14.txt", []int{4}},
}

// golden adapts a matrix entry point to the table's run signature.
func golden[M any](run func(Options, M) (*Table, error), m M) func(Options) (string, error) {
	return func(o Options) (string, error) {
		tbl, err := run(o, m)
		if err != nil {
			return "", err
		}
		return tbl.String() + "\n", nil
	}
}

func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			check := func(t *testing.T, opt Options) {
				t.Helper()
				got, err := g.run(opt)
				if err != nil {
					t.Fatal(err)
				}
				if *updateGolden && opt == g.opt { // only the sequential run rewrites
					if err := os.WriteFile(g.path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("rewrote %s (%d bytes)", g.path, len(got))
					return
				}
				want, err := os.ReadFile(g.path)
				if err != nil {
					t.Fatalf("read golden (run with -update-golden to create): %v", err)
				}
				if got != string(want) {
					t.Fatalf("output diverged from %s at byte %d.\ngot:\n%s\nwant:\n%s",
						g.path, firstDiff(got, string(want)), got, want)
				}
			}
			t.Run("sequential", func(t *testing.T) { check(t, g.opt) })
			t.Run("parallel", func(t *testing.T) {
				opt := g.opt
				opt.Parallel = 8
				check(t, opt)
			})
			t.Run("measure-workers", func(t *testing.T) {
				for _, w := range g.workers {
					opt := g.opt
					opt.MeasureWorkers = w
					check(t, opt)
				}
			})
		})
	}
}

// goldenE9Sweep is the pinned miniature sweep: every scheme, two small
// populations, the default mix. Small enough to run in CI, large enough
// that every profile gets MNs and every scheme hands off.
func goldenE9Sweep() ScaleSweep {
	return ScaleSweep{
		Populations: []int{40, 80},
		Schemes:     core.Schemes(),
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
}

// goldenE10Matrix is the pinned capacity matrix: every scheme, two small
// populations, fixed and dimensioned columns. At 80 MNs the planner
// already grows the arena, so the two columns differ.
func goldenE10Matrix() CapacityMatrix {
	return CapacityMatrix{
		Populations: []int{40, 80},
		Schemes:     core.Schemes(),
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
}

// goldenE11Matrix is the pinned resilience matrix: every scheme under
// every standard fault profile at one small population.
func goldenE11Matrix() ResilienceMatrix {
	return ResilienceMatrix{
		Populations: []int{40},
		Schemes:     core.Schemes(),
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
}

// shortOptions run every scenario at the 2 s floor.
func shortOptions(reps int) Options {
	return Options{Seed: 7, TimeScale: 0.05, Reps: reps, Parallel: 1}
}

// recoveryOptions scale each run to 4 virtual seconds (not the 2 s
// floor): recovery needs room after the outage window closes, so the
// storms of E11, E13 and E14 can actually converge inside the run.
func recoveryOptions() Options {
	return Options{Seed: 7, TimeScale: 0.4, Reps: 1, Parallel: 1}
}

// goldenE13Matrix is the pinned closed-loop matrix: one crowd at the
// smallest population that both dimensions to a 2-root arena (so elastic
// admission has a donor) and saturates the hot root's fixed 4-domain
// small-cell floor budget (so the 0.80 occupancy trigger actually trips).
func goldenE13Matrix() ClosedLoopMatrix {
	m := DefaultClosedLoopMatrix()
	m.Populations = []int{500}
	return m
}

// goldenE14Matrix is the pinned degradation matrix: one crowd big enough
// to push the hot root's subtree past both ladder thresholds, under both
// default profiles.
func goldenE14Matrix() DegradationMatrix {
	m := DefaultDegradationMatrix()
	m.Populations = []int{500}
	return m
}

// badAxes are the shared-axis cases every matrix must reject before any
// scenario runs. Each names the parameter field it breaks; a matrix
// without that field skips the case, and an empty field zeroes the whole
// parameter value.
var badAxes = []struct {
	name, field string
	v           any
}{
	{"zero-value", "", nil},
	{"empty", "Populations", []int(nil)},
	{"zero", "Populations", []int{0, 40}},
	{"negative", "Populations", []int{-10}},
	{"duplicate", "Populations", []int{40, 40}},
	{"unsorted", "Populations", []int{80, 40}},
	{"no-schemes", "Schemes", []core.Scheme(nil)},
	{"no-duration", "Duration", time.Duration(0)},
	{"no-spec", "Spec", fleet.Spec{}},
	{"neg-sample", "SampleInterval", -time.Second},
	{"bad-planner", "Planner", capacity.PlannerConfig{MNsPerMicro: -1}},
	{"nil-plan", "Profiles", []faults.NamedPlan{{Name: "x"}}},
	{"unnamed", "Profiles", []faults.NamedPlan{{Plan: &faults.Plan{}}}},
	{"bad-plan", "Profiles", []faults.NamedPlan{{Name: "bad", Plan: &faults.Plan{
		Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 0, Start: 0.5, Duration: 0.1}},
	}}}},
}

func TestMatrixRejectsBadAxes(t *testing.T) {
	t.Run("E9", func(t *testing.T) { rejectsBadAxes(t, E9ScaleSweep, goldenE9Sweep()) })
	t.Run("E10", func(t *testing.T) { rejectsBadAxes(t, E10CapacityMatrix, goldenE10Matrix()) })
	t.Run("E11", func(t *testing.T) { rejectsBadAxes(t, E11Resilience, goldenE11Matrix()) })
	t.Run("E13", func(t *testing.T) { rejectsBadAxes(t, E13ClosedLoop, goldenE13Matrix()) })
	t.Run("E14", func(t *testing.T) { rejectsBadAxes(t, E14Degradation, goldenE14Matrix()) })
}

func rejectsBadAxes[M any](t *testing.T, run func(Options, M) (*Table, error), base M) {
	for _, c := range badAxes {
		m := base
		v := reflect.ValueOf(&m).Elem()
		if c.field == "" {
			v.SetZero()
		} else if f := v.FieldByName(c.field); f.IsValid() {
			f.Set(reflect.ValueOf(c.v))
		} else {
			continue
		}
		_, err := run(recoveryOptions(), m)
		if !errors.Is(err, ErrBadOptions) && !errors.Is(err, faults.ErrBadPlan) &&
			!errors.Is(err, capacity.ErrBadPlan) && !errors.Is(err, fleet.ErrBadSpec) {
			t.Errorf("%s matrix: got %v, want a validation error before any scenario runs", c.name, err)
		}
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestMatrixJobLabels pins the job labels trace files are named after:
// <scheme>@<n>-MNs[-<profile>][-<variant>] in population → profile →
// variant → scheme order.
func TestMatrixJobLabels(t *testing.T) {
	opt := recoveryOptions()
	for _, c := range []struct {
		m           matrix
		first, last string
	}{
		{goldenE9Sweep().matrix(), "mobile-ip@40-MNs", "multitier-rsmc@80-MNs"},
		{goldenE10Matrix().matrix(), "mobile-ip@40-MNs-fixed", "multitier-rsmc@80-MNs-dimensioned"},
		{goldenE11Matrix().matrix(), "mobile-ip@40-MNs-baseline", "multitier-rsmc@40-MNs-storm"},
		{goldenE13Matrix().matrix(), "multitier-rsmc@500-MNs-baseline-open", "multitier-rsmc@500-MNs-root-blackout-closed"},
	} {
		jobs, _, err := c.m.expand(opt)
		if err != nil {
			t.Fatal(err)
		}
		if first, last := jobs[0].Label, jobs[len(jobs)-1].Label; first != c.first || last != c.last {
			t.Errorf("E%d labels run %q .. %q, want %q .. %q", c.m.num, first, last, c.first, c.last)
		}
	}
}
