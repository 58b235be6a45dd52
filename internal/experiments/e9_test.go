package experiments

import (
	"strconv"
	"testing"

	"repro/internal/core"
)

// TestE9EveryProfilePopulated guards the table contents (not just the
// bytes): each cell's per-profile rows report non-zero populations that
// sum exactly to the cell's MN count.
func TestE9EveryProfilePopulated(t *testing.T) {
	sw := goldenE9Sweep()
	tbl, err := E9ScaleSweep(shortOptions(2), sw)
	if err != nil {
		t.Fatal(err)
	}
	profiles := len(sw.Spec.Profiles)
	cells := 0
	for i, row := range tbl.Rows {
		if row[2] != "all" {
			continue
		}
		cells++
		cellMNs, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("cell row %d has non-numeric MNs %q", i, row[3])
		}
		sum := 0
		for j := 1; j <= profiles; j++ {
			prow := tbl.Rows[i+j]
			if prow[2] != sw.Spec.Profiles[j-1].Name {
				t.Fatalf("row %d: profile %q out of order (want %q)", i+j, prow[2], sw.Spec.Profiles[j-1].Name)
			}
			pop, err := strconv.Atoi(prow[3])
			if err != nil || pop <= 0 {
				t.Fatalf("profile %q reports population %q", prow[2], prow[3])
			}
			sum += pop
		}
		if sum != cellMNs {
			t.Fatalf("row %d: profile populations sum to %d, cell has %d MNs", i, sum, cellMNs)
		}
	}
	if want := len(sw.Populations) * len(sw.Schemes); cells != want {
		t.Fatalf("table has %d cells, want %d", cells, want)
	}
}

func TestE9RejectsEmptySweep(t *testing.T) {
	if _, err := E9ScaleSweep(Options{}, ScaleSweep{}); err == nil {
		t.Fatal("E9ScaleSweep accepted an empty sweep")
	}
}

// TestE9RejectsBadPopulationAxis pins the axis validation: unsorted,
// duplicate and non-positive population axes used to be accepted
// silently (duplicates doubled the run time, unsorted axes rendered
// misordered tables).
func TestE9RejectsBadPopulationAxis(t *testing.T) {
	for name, pops := range map[string][]int{
		"zero":      {0, 40},
		"negative":  {-10},
		"duplicate": {40, 40},
		"unsorted":  {80, 40},
	} {
		sw := goldenE9Sweep()
		sw.Populations = pops
		if _, err := E9ScaleSweep(shortOptions(2), sw); err == nil {
			t.Errorf("%s population axis accepted", name)
		}
	}
	sw := goldenE9Sweep()
	sw.Duration = 0
	if _, err := E9ScaleSweep(shortOptions(2), sw); err == nil {
		t.Error("zero-duration sweep accepted")
	}
}

// TestE9SignallingColumnsOptIn proves the attribution columns appear
// exactly when asked for, so the pinned golden (signalling off) and the
// enriched table coexist.
func TestE9SignallingColumnsOptIn(t *testing.T) {
	sw := goldenE9Sweep()
	sw.Populations = []int{40}
	sw.Schemes = []core.Scheme{core.SchemeMultiTier}
	plain, err := E9ScaleSweep(shortOptions(2), sw)
	if err != nil {
		t.Fatal(err)
	}
	sw.PerProfileSignalling = true
	rich, err := E9ScaleSweep(shortOptions(2), sw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rich.Header), len(plain.Header)+2; got != want {
		t.Fatalf("signalling header has %d columns, want %d", got, want)
	}
	if rich.Header[len(rich.Header)-2] != "loc upd/MN" || rich.Header[len(rich.Header)-1] != "pages" {
		t.Fatalf("signalling columns misnamed: %v", rich.Header)
	}
	// Active multi-tier MNs refresh location state every second, so the
	// per-profile location-update columns must be non-zero.
	for i, row := range rich.Rows {
		if len(row) != len(rich.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(rich.Header))
		}
		if row[len(row)-2] == "0.00" {
			t.Fatalf("row %d attributes no location updates: %v", i, row)
		}
	}
}
