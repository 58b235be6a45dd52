package main

import (
	"io"
	"strings"
	"testing"
)

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
	if err := run([]string{"-mns", "10", "-scale", "0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("zero scale accepted")
	}
	if err := run([]string{"-mns", "10", "-reps", "0"}, io.Discard, io.Discard); err == nil {
		t.Fatal("zero reps accepted")
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
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Fatalf("run(%v) accepted", args)
		}
	}
}
