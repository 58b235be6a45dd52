package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// goldenDir holds the experiments' checked-in goldens; the CLI must
// print them byte for byte.
const goldenDir = "../../internal/experiments/testdata/"

// TestRunMatchesGoldens runs the CLI at each golden's options and
// compares stdout with the checked-in file. It never rewrites them.
func TestRunMatchesGoldens(t *testing.T) {
	for _, c := range []struct{ golden, args string }{
		{"golden_suite.txt", "-suite -reps 2"},
		{"golden_e9.txt", "-reps 2 -mns 40,80 -duration 10s"},
		{"golden_e10.txt", "-dimension -reps 1 -mns 40,80 -duration 10s"},
	} {
		want, err := os.ReadFile(goldenDir + c.golden)
		if err != nil {
			t.Fatal(err)
		}
		args := strings.Fields("-seed 7 -scale 0.05 -parallel 1 " + c.args)
		var stdout strings.Builder
		if err := run(args, &stdout, io.Discard); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		if stdout.String() != string(want) {
			t.Errorf("run(%v) diverged from %s:\n%s", args, c.golden, stdout.String())
		}
	}
}

// suiteFirstTable runs -suite -only E1 at the suite golden's options
// plus extra and checks that it printed the golden's first table: E1
// leads the suite golden.
func suiteFirstTable(t *testing.T, extra ...string) {
	t.Helper()
	want, err := os.ReadFile(goldenDir + "golden_suite.txt")
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-suite", "-only", "E1", "-seed", "7", "-scale", "0.05", "-reps", "2"}, extra...)
	var stdout strings.Builder
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got == "" || !strings.HasPrefix(string(want), got) || strings.Count(got, "\n\n") != 1 {
		t.Fatalf("run(%v) printed something other than the golden's first table:\n%s", args, got)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	suiteFirstTable(t, "-parallel", "1")
}

func TestRunReplicatedParallel(t *testing.T) {
	// Replications spread over workers render the same bytes.
	suiteFirstTable(t, "-parallel", "2")
}

func TestRunSummaryRecordsWorkerCounts(t *testing.T) {
	runSummary(t, "mmscale: 1 experiment(s), 2 rep(s), 2 worker(s), 3 measure worker(s) in ",
		"-suite", "-only", "E1", "-scale", "0.05", "-reps", "2", "-parallel", "2", "-measureworkers", "3")
}

func TestRunUnknownExperiment(t *testing.T) {
	for _, only := range []string{"E99", "E9", "e1", ""} {
		if err := run([]string{"-suite", "-only", only}, io.Discard, io.Discard); err == nil {
			t.Errorf("-only %q accepted", only)
		}
	}
}

func TestRunSmallSweep(t *testing.T) {
	if err := run([]string{"-mns", "20,40", "-schemes", "multitier-rsmc",
		"-duration", "3s", "-memstats"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSuiteRejectsBadFlag(t *testing.T) {
	// The retired experiment CLI's -json and profiling flags are unknown here.
	for _, args := range [][]string{
		{"-suite", "-nope"},
		{"-suite", "-json", "run.json"},
		{"-suite", "-cpuprofile", "cpu.out"},
		{"-suite", "-memprofile", "mem.out"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestRunRejectsBadPopulations(t *testing.T) {
	for _, mns := range []string{"", "0", "-5", "abc", "10,x",
		"10,10", "40,20", "10,20,20", "30,10,20"} {
		if err := run([]string{"-mns", mns}, io.Discard, io.Discard); err == nil {
			t.Fatalf("-mns %q accepted", mns)
		}
	}
}

func TestRunSmallDimensionedMatrix(t *testing.T) {
	if err := run([]string{"-dimension", "-mns", "20,40", "-schemes", "multitier-rsmc",
		"-duration", "3s"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallSweepWithSignalling(t *testing.T) {
	if err := run([]string{"-mns", "20", "-schemes", "multitier-rsmc",
		"-duration", "3s", "-signalling"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadDimensioningKnobs(t *testing.T) {
	if err := run([]string{"-dimension", "-mns", "20", "-density", "downtown"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown density accepted")
	}
	if err := run([]string{"-dimension", "-mns", "20", "-headroom", "0.5"}, io.Discard, io.Discard); err == nil {
		t.Fatal("sub-1 headroom accepted")
	}
}

func TestRunRejectsBadSchemes(t *testing.T) {
	for _, s := range []string{"", "warp-drive", "multitier-rsmc,nope"} {
		if err := run([]string{"-mns", "10", "-schemes", s}, io.Discard, io.Discard); err == nil {
			t.Fatalf("-schemes %q accepted", s)
		}
	}
}

func TestRunRejectsBadFleet(t *testing.T) {
	if err := run([]string{"-mns", "10", "-fleet", "unknown-profile=1"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown fleet profile accepted")
	}
	if err := run([]string{"-mns", "10", "-fleet", "pedestrian-voice=0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("zero-share fleet accepted")
	}
}

func TestRunRejectsDegenerateOptions(t *testing.T) {
	rejectDegenerate(t, "-mns", "10")
}

func TestRunSuiteRejectsDegenerateOptions(t *testing.T) {
	rejectDegenerate(t, "-suite")
}

// rejectDegenerate checks that mode refuses a non-positive -scale, -reps
// or -parallel.
func rejectDegenerate(t *testing.T, mode ...string) {
	t.Helper()
	for _, bad := range [][]string{
		{"-scale", "0"}, {"-scale", "-1"}, {"-reps", "0"}, {"-parallel", "0"},
	} {
		if err := run(append(append([]string{}, mode...), bad...), io.Discard, io.Discard); err == nil {
			t.Errorf("%v %v accepted", mode, bad)
		}
	}
}

func TestRunMeasureWorkers(t *testing.T) {
	// 0 resolves to GOMAXPROCS; any count renders identical bytes, so a
	// tiny sweep just has to complete.
	if err := run([]string{"-mns", "20", "-schemes", "multitier-rsmc",
		"-duration", "3s", "-measureworkers", "0"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-mns", "20", "-schemes", "multitier-rsmc",
		"-duration", "3s", "-measureworkers", "4"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-mns", "20", "-measureworkers", "-2"}, io.Discard, io.Discard); err == nil {
		t.Fatal("negative -measureworkers accepted")
	}
}

func TestRunSmallClosedLoopMatrix(t *testing.T) {
	// A small crowd never trips the occupancy alert, but the full
	// open/closed x profile matrix must still run and render, and the
	// summary must count the closed-loop matrix's axes, not E9's.
	runSummary(t, "mmscale: 1 population(s) x 1 scheme(s), ",
		"-closedloop", "-mns", "100", "-duration", "2s")
}

// runSummary runs mmscale and checks the stderr summary line's prefix.
func runSummary(t *testing.T, want string, args ...string) {
	t.Helper()
	var stderr strings.Builder
	if err := run(args, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stderr.String(), want) {
		t.Fatalf("run(%v) summary %q, want prefix %q", args, stderr.String(), want)
	}
}

func TestRunSmallFaultAndDegradeMatrices(t *testing.T) {
	runSummary(t, "mmscale: 1 population(s) x 4 scheme(s), ",
		"-faults", "-faultprofiles", "root-outage", "-mns", "40", "-duration", "2s",
		"-trace", "-sample", "250ms", "-traceout", t.TempDir())
	runSummary(t, "mmscale: 1 population(s) x 1 scheme(s), ",
		"-degrade", "-faultprofiles", "storm", "-mns", "100", "-duration", "2s")
}

func TestRunRejectsFlagsItsModeIgnores(t *testing.T) {
	for _, args := range [][]string{
		{"-mns", "40", "-rootocc", "-density", "bogus-but-ignored"},
		{"-mns", "40", "-headroom", "2"},
		{"-mns", "40", "-faultprofiles", "root-outage"},
		{"-mns", "40", "-sample", "250ms"},
		{"-mns", "40", "-traceout", "traces"},
		{"-dimension", "-mns", "40", "-signalling"},
		{"-dimension", "-mns", "40", "-sample", "250ms"},
		{"-faults", "-mns", "40", "-signalling"},
		{"-faults", "-mns", "40", "-sample", "250ms"},
		{"-closedloop", "-mns", "100", "-schemes", "multitier-rsmc"},
		{"-closedloop", "-mns", "100", "-faultprofiles", "storm"},
		{"-degrade", "-mns", "100", "-schemes", "multitier-rsmc"},
		{"-degrade", "-mns", "100", "-rootocc"},
		{"-only", "E1"},
		{"-dimension", "-only", "E1"},
		{"-suite", "-mns", "40"},
		{"-suite", "-schemes", "multitier-rsmc"},
		{"-suite", "-signalling"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestRunRejectsConflictingModes(t *testing.T) {
	for _, args := range [][]string{
		{"-closedloop", "-faults"},
		{"-closedloop", "-dimension"},
		{"-faults", "-dimension"},
		{"-degrade", "-faults"},
		{"-degrade", "-closedloop"},
		{"-degrade", "-dimension"},
		{"-suite", "-dimension"},
		{"-suite", "-faults"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Fatalf("run(%v) accepted", args)
		}
	}
}
