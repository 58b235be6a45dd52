package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// TestE10DimensionedShedsLess pins the headline acceptance
// criterion at 5k MNs: on the fixed 13-cell topology the multi-tier
// scheme sheds the majority of admission decisions for capacity, while
// the dimensioned arena sheds under 10% — proving the matrix finally
// separates scheme cost from raw capacity exhaustion.
func TestE10DimensionedShedsLess(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-MN scenario pair is too heavy for -short")
	}
	m := CapacityMatrix{
		Populations: []int{5000},
		Schemes:     []core.Scheme{core.SchemeMultiTier},
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
	opt := Options{Seed: 7, TimeScale: 0.2, Reps: 1, Parallel: 2}
	opt, err := opt.normalized()
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, err := m.matrix().expand(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.execute(10, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("matrix ran %d jobs, want 2", len(res))
	}
	fixed := res[0].Stat(shedRate).Mean
	dimensioned := res[1].Stat(shedRate).Mean
	if fixed <= 0.5 {
		t.Errorf("fixed 13-cell topology shed rate %.1f%% at 5k MNs, expected > 50%%", 100*fixed)
	}
	if dimensioned >= 0.1 {
		t.Errorf("dimensioned topology shed rate %.1f%% at 5k MNs, expected < 10%%", 100*dimensioned)
	}
}

// TestE10FlatSchemesRunOnDimensionedArena guards the "any scheme can
// run on a dimensioned arena" threading: the golden matrix includes all
// four schemes, and the flat schemes must report zero admission
// decisions (no admission model) while still delivering traffic.
func TestE10FlatSchemesRunOnDimensionedArena(t *testing.T) {
	opt := shortOptions(1)
	opt, err := opt.normalized()
	if err != nil {
		t.Fatal(err)
	}
	m := goldenE10Matrix()
	m.Populations = []int{40}
	m.Schemes = []core.Scheme{core.SchemeMobileIP, core.SchemeCellularIPHard}
	jobs, _, err := m.matrix().expand(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.execute(10, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Job.Config.Capacity == nil {
			continue // fixed column
		}
		run := r.First()
		if run == nil {
			t.Fatalf("%s: no completed run", r.Job.Label)
		}
		if run.Summary.Delivered == 0 {
			t.Errorf("%s: delivered nothing on the dimensioned arena", r.Job.Label)
		}
		if got := r.Counter("tier.admission.admitted"); got.Mean != 0 {
			t.Errorf("%s: flat scheme reports %v multi-tier admissions", r.Job.Label, got.Mean)
		}
	}
}

// TestE10RootOccupancyColumnOptIn proves the per-root load-balance
// column appears exactly when asked for (the pinned golden keeps its
// bytes without it) and that multi-tier rows on a dimensioned multi-root
// grid actually report a spread.
func TestE10RootOccupancyColumnOptIn(t *testing.T) {
	m := goldenE10Matrix()
	m.Populations = []int{80}
	m.Schemes = []core.Scheme{core.SchemeMultiTier}
	plain, err := E10CapacityMatrix(shortOptions(1), m)
	if err != nil {
		t.Fatal(err)
	}
	m.PerRootOccupancy = true
	rich, err := E10CapacityMatrix(shortOptions(1), m)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rich.Header), len(plain.Header)+1; got != want {
		t.Fatalf("root-occupancy header has %d columns, want %d", got, want)
	}
	if rich.Header[len(rich.Header)-1] != "root occ spread" {
		t.Fatalf("root-occupancy column misnamed: %v", rich.Header)
	}
	for i, row := range rich.Rows {
		if len(row) != len(rich.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(rich.Header))
		}
		// Multi-tier runs admission control, so every row (fixed and
		// dimensioned) must report per-root occupancy, not "-".
		if cell := row[len(row)-1]; cell == "-" || cell == "" {
			t.Fatalf("row %d reports no root occupancy: %v", i, row)
		}
	}
}
