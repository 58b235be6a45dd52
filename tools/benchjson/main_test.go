package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// canned is a real-shaped `go test -bench -benchmem` transcript: header
// lines, benchmark results with and without allocation columns, a
// sub-benchmark with a slash name, PASS/ok trailers, and noise that the
// parser must skip.
const canned = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkE6SchemeComparison-8  	       3	 736063066 ns/op	286013856 B/op	 4522096 allocs/op
BenchmarkE1MobileIPRegistration-8   	      12	  95474148 ns/op	 1474556 B/op	   18279 allocs/op
BenchmarkScenarioPerScheme/multitier-rsmc-8 	       5	 223456789 ns/op
BenchmarkSchedulerEventChurn-8	 5000000	       231 ns/op	       0 B/op	       0 allocs/op
BenchmarkBroken-8	not-a-number	 100 ns/op
PASS
ok  	repro	12.345s
`

func TestParseCannedOutput(t *testing.T) {
	rep, err := parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("header = %q/%q", rep.Goos, rep.Goarch)
	}
	if rep.CPU != "AMD EPYC 7B13" {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4 (broken line must be skipped): %+v", len(rep.Results), rep.Results)
	}
	// Results are sorted by name and the -8 cpu suffix is stripped.
	wantNames := []string{
		"BenchmarkE1MobileIPRegistration",
		"BenchmarkE6SchemeComparison",
		"BenchmarkScenarioPerScheme/multitier-rsmc",
		"BenchmarkSchedulerEventChurn",
	}
	for i, want := range wantNames {
		if rep.Results[i].Name != want {
			t.Fatalf("result %d name = %q, want %q", i, rep.Results[i].Name, want)
		}
	}
	e6 := rep.Results[1]
	if e6.Iterations != 3 || e6.NsPerOp != 736063066 || e6.BytesPerOp != 286013856 || e6.AllocsPerOp != 4522096 {
		t.Fatalf("E6 measurements wrong: %+v", e6)
	}
	// A line without -benchmem columns still parses ns/op.
	sub := rep.Results[2]
	if sub.NsPerOp != 223456789 || sub.BytesPerOp != 0 || sub.AllocsPerOp != 0 {
		t.Fatalf("sub-bench measurements wrong: %+v", sub)
	}
}

func TestParseEmittedJSONRoundTrips(t *testing.T) {
	rep, err := parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("emitted JSON does not round trip: %v\n%s", err, buf.String())
	}
	if len(back.Results) != len(rep.Results) {
		t.Fatalf("round trip lost results: %d -> %d", len(rep.Results), len(back.Results))
	}
	// Omitted-zero fields: the alloc-free benchmark keeps explicit zeros
	// out of the document.
	if strings.Contains(buf.String(), `"bytes_per_op": 0`) {
		t.Fatalf("zero B/op not omitted:\n%s", buf.String())
	}
}

func TestParseEmptyInput(t *testing.T) {
	rep, err := parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Fatalf("empty input produced %d results", len(rep.Results))
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8",                   // too few fields
		"BenchmarkX-8 abc 100 ns/op",     // bad iteration count
		"BenchmarkX-8 3 garbage garbage", // no ns/op measurement
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

// writeBaseline marshals a baseline report to a temp file for compare().
func writeBaseline(t *testing.T, rep Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGateDetectsRegression(t *testing.T) {
	base := Report{CPU: "test-box", Results: []Result{
		{Name: "BenchmarkE6SchemeComparison", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkOther", NsPerOp: 1000},
	}}
	path := writeBaseline(t, base)
	gates := []string{"BenchmarkE6", "BenchmarkE9", "BenchmarkE10"}

	// Within the limit (+10% ns/op) and an ungated benchmark regressing
	// wildly: no failures.
	fresh := Report{CPU: "test-box", Results: []Result{
		{Name: "BenchmarkE6SchemeComparison", NsPerOp: 1100, AllocsPerOp: 100},
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 900, AllocsPerOp: 100},
		{Name: "BenchmarkOther", NsPerOp: 9000},
	}}
	var out strings.Builder
	n, err := compare(path, fresh, 0.15, gates, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("within-limit run failed gate (%d failures):\n%s", n, out.String())
	}

	// ns/op past the limit on one gated benchmark: exactly one failure.
	fresh.Results[0].NsPerOp = 1200
	out.Reset()
	if n, err = compare(path, fresh, 0.15, gates, &out); err != nil || n != 1 {
		t.Fatalf("ns/op regression: failures=%d err=%v\n%s", n, err, out.String())
	}

	// allocs/op regression alone also fails.
	fresh.Results[0].NsPerOp = 1000
	fresh.Results[0].AllocsPerOp = 200
	out.Reset()
	if n, err = compare(path, fresh, 0.15, gates, &out); err != nil || n != 1 {
		t.Fatalf("allocs regression: failures=%d err=%v\n%s", n, err, out.String())
	}
}

func TestCompareGateFailsOnMissingBenchmark(t *testing.T) {
	base := Report{Results: []Result{{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1000}}}
	path := writeBaseline(t, base)
	var out strings.Builder
	n, err := compare(path, Report{}, 0.15, []string{"BenchmarkE9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("missing gated benchmark passed the gate:\n%s", out.String())
	}
}

func TestCompareGateSkipsNewBenchmarks(t *testing.T) {
	path := writeBaseline(t, Report{Results: []Result{{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1000}}})
	fresh := Report{Results: []Result{
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1000},
		{Name: "BenchmarkE9Scale10k", NsPerOp: 123456},
	}}
	var out strings.Builder
	n, err := compare(path, fresh, 0.15, []string{"BenchmarkE9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("new benchmark without baseline failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkE9Scale10k") {
		t.Fatalf("new benchmark not reported:\n%s", out.String())
	}
}

func TestCompareGateRejectsBadBaseline(t *testing.T) {
	if _, err := compare(filepath.Join(t.TempDir(), "missing.json"), Report{}, 0.15, nil, io.Discard); err == nil {
		t.Fatal("missing baseline accepted")
	}
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compare(path, Report{}, 0.15, nil, io.Discard); err == nil {
		t.Fatal("garbage baseline accepted")
	}
}

// TestCompareGateMinMergesRepetitions pins the -count de-noising: a
// benchmark measured several times is judged by its fastest repetition
// (and smallest alloc count), so one noisy repetition cannot flag a
// phantom regression.
func TestCompareGateMinMergesRepetitions(t *testing.T) {
	path := writeBaseline(t, Report{CPU: "test-box", Results: []Result{
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1000, AllocsPerOp: 100},
	}})
	fresh := Report{CPU: "test-box", Results: []Result{
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1600, AllocsPerOp: 100}, // noisy rep
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1050, AllocsPerOp: 101},
	}}
	var out strings.Builder
	n, err := compare(path, fresh, 0.15, []string{"BenchmarkE9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("min-merge failed to de-noise repetitions:\n%s", out.String())
	}
	// Every repetition slow: a real regression still fails.
	fresh.Results[1].NsPerOp = 1600
	out.Reset()
	if n, err = compare(path, fresh, 0.15, []string{"BenchmarkE9"}, &out); err != nil || n != 1 {
		t.Fatalf("uniform regression passed the gate: failures=%d err=%v\n%s", n, err, out.String())
	}
}

// TestCompareGateBytesPerOp pins the B/op gate: bytes per op are held
// to the same limit as allocs/op, are min-merged across repetitions,
// and fail the gate even on foreign hardware, where ns/op is advisory.
func TestCompareGateBytesPerOp(t *testing.T) {
	path := writeBaseline(t, Report{CPU: "recording-box", Results: []Result{
		{Name: "BenchmarkE9Scale10k", NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 100},
	}})
	gates := []string{"BenchmarkE9"}
	fresh := Report{CPU: "other-box", Results: []Result{
		{Name: "BenchmarkE9Scale10k", NsPerOp: 1000, BytesPerOp: 1100, AllocsPerOp: 100},
	}}
	var out strings.Builder
	if n, err := compare(path, fresh, 0.15, gates, &out); err != nil || n != 0 {
		t.Fatalf("B/op within the limit failed the gate: failures=%d err=%v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "B/op +10.0%") {
		t.Fatalf("B/op change not reported:\n%s", out.String())
	}
	fresh.Results[0].BytesPerOp = 1200
	out.Reset()
	if n, err := compare(path, fresh, 0.15, gates, &out); err != nil || n != 1 {
		t.Fatalf("B/op regression alone must fail, cross-machine too: failures=%d err=%v\n%s", n, err, out.String())
	}
	// One lean repetition is enough: the smallest B/op is judged.
	fresh.Results = append(fresh.Results,
		Result{Name: "BenchmarkE9Scale10k", NsPerOp: 1300, BytesPerOp: 1050, AllocsPerOp: 100})
	out.Reset()
	if n, err := compare(path, fresh, 0.15, gates, &out); err != nil || n != 0 {
		t.Fatalf("min-merge did not apply to B/op: failures=%d err=%v\n%s", n, err, out.String())
	}
	// A baseline without B/op (recorded without -benchmem) gates nothing.
	path = writeBaseline(t, Report{CPU: "recording-box", Results: []Result{
		{Name: "BenchmarkE9Scale10k", NsPerOp: 1000, AllocsPerOp: 100},
	}})
	out.Reset()
	if n, err := compare(path, fresh, 0.15, gates, &out); err != nil || n != 0 {
		t.Fatalf("missing baseline B/op failed the gate: failures=%d err=%v\n%s", n, err, out.String())
	}
}

// TestCompareGateCPUMismatchMakesNsAdvisory pins the cross-machine rule:
// on foreign hardware ns/op cannot fail the gate (absolute times mean
// nothing there), while the machine-independent allocs/op check still
// can.
func TestCompareGateCPUMismatchMakesNsAdvisory(t *testing.T) {
	path := writeBaseline(t, Report{CPU: "recording-box", Results: []Result{
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1000, AllocsPerOp: 100},
	}})
	fresh := Report{CPU: "other-box", Results: []Result{
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 5000, AllocsPerOp: 100},
	}}
	var out strings.Builder
	n, err := compare(path, fresh, 0.15, []string{"BenchmarkE9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("ns/op failed the gate on mismatched hardware:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "advisory") {
		t.Fatalf("mismatch not reported:\n%s", out.String())
	}
	fresh.Results[0].AllocsPerOp = 200
	out.Reset()
	if n, err = compare(path, fresh, 0.15, []string{"BenchmarkE9"}, &out); err != nil || n != 1 {
		t.Fatalf("allocs regression must still fail cross-machine: failures=%d err=%v\n%s", n, err, out.String())
	}
	// Unknown identity (missing cpu: line) is treated like a mismatch.
	fresh = Report{Results: []Result{
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 5000, AllocsPerOp: 100},
	}}
	out.Reset()
	if n, err = compare(path, fresh, 0.15, []string{"BenchmarkE9"}, &out); err != nil || n != 0 {
		t.Fatalf("ns/op failed the gate with unknown CPU identity: failures=%d err=%v\n%s", n, err, out.String())
	}
}

func TestStampRecordsToolchain(t *testing.T) {
	var rep Report
	rep.stamp()
	if !strings.HasPrefix(rep.GoVersion, "go") {
		t.Fatalf("go_version = %q, want a go toolchain version", rep.GoVersion)
	}
	// GitCommit is best-effort: when it is set (tests run inside the
	// repo) it must look like a short hash.
	if rep.GitCommit != "" && (len(rep.GitCommit) < 6 || strings.ContainsAny(rep.GitCommit, " \n")) {
		t.Fatalf("git_commit = %q, not a short hash", rep.GitCommit)
	}
}

// TestCompareToleratesProvenanceMetadata pins the interop contract:
// baselines carrying (or lacking) the go_version/git_commit provenance
// fields — and any future unknown metadata — compare cleanly against a
// fresh report either way.
func TestCompareToleratesProvenanceMetadata(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	raw := []byte(`{
  "cpu": "test-box",
  "go_version": "go99.99",
  "git_commit": "deadbeef",
  "some_future_field": {"nested": true},
  "results": [{"name": "BenchmarkE9ScaleSweep", "iterations": 1, "ns_per_op": 1000}]
}`)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := Report{CPU: "test-box", GoVersion: "go1.0", Results: []Result{
		{Name: "BenchmarkE9ScaleSweep", NsPerOp: 1000},
	}}
	fresh.stamp()
	var out strings.Builder
	n, err := compare(path, fresh, 0.15, []string{"BenchmarkE9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("metadata-bearing baseline failed the gate:\n%s", out.String())
	}
}
