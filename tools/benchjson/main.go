// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON document mapping each benchmark to its ns/op, B/op and
// allocs/op. The Makefile's bench-json target pipes the experiment
// benchmarks through it to produce BENCH_<n>.json snapshots, so the
// repository tracks the performance trajectory PR over PR.
//
// With -compare it becomes the CI benchmark-regression gate: instead of
// emitting JSON it compares the fresh run on stdin against a committed
// BENCH_*.json baseline and exits non-zero when any gated benchmark's
// ns/op, B/op or allocs/op regressed beyond -limit.
//
// Usage:
//
//	go test -bench 'E[0-9]' -benchtime 1x -benchmem -run '^$' . | go run ./tools/benchjson > BENCH_2.json
//	go test -bench 'E6|E9|E10' -benchtime 3x -benchmem -run '^$' . | \
//	    go run ./tools/benchjson -compare BENCH_5.json -limit 0.15 -only BenchmarkE6,BenchmarkE9,BenchmarkE10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line's measurements.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Report is the emitted document. The provenance fields (GoVersion,
// GitCommit) identify the toolchain and tree that produced a snapshot;
// -compare ignores them, so old baselines without the fields and new
// ones with them interoperate freely.
type Report struct {
	Goos      string   `json:"goos,omitempty"`
	Goarch    string   `json:"goarch,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	GoVersion string   `json:"go_version,omitempty"`
	GitCommit string   `json:"git_commit,omitempty"`
	Results   []Result `json:"results"`
}

// stamp records the producing toolchain and, when available, the git
// commit of the working tree. Both are best-effort provenance: a missing
// git binary or a non-repo working directory just leaves the field
// empty.
func (r *Report) stamp() {
	r.GoVersion = runtime.Version()
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err == nil {
		r.GitCommit = strings.TrimSpace(string(out))
	}
}

func main() {
	var (
		baseline = flag.String("compare", "", "compare stdin's bench output against this BENCH_*.json baseline instead of emitting JSON; exit 1 on regression")
		limit    = flag.Float64("limit", 0.15, "with -compare, the maximum tolerated fractional regression (0.15 = +15%)")
		only     = flag.String("only", "BenchmarkE6,BenchmarkE9,BenchmarkE10", "with -compare, comma-separated benchmark name prefixes to gate")
	)
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		failures, err := compare(*baseline, rep, *limit, strings.Split(*only, ","), os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%%\n", failures, 100**limit)
			os.Exit(1)
		}
		return
	}
	rep.stamp()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gated reports whether a benchmark name falls under the gate: it starts
// with one of the configured prefixes (ignoring empty entries).
func gated(name string, prefixes []string) bool {
	for _, p := range prefixes {
		p = strings.TrimSpace(p)
		if p != "" && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// compare checks the fresh report against the baseline file and returns
// the number of gated regressions. ns/op may grow by at most limit;
// B/op and allocs/op are held to the same fraction (allocation figures
// are stable, so any real growth there is a code change, not noise).
// Gated benchmarks present in the baseline but missing from the fresh
// run fail too — a silently dropped benchmark must not pass the gate.
// Fresh benchmarks without a baseline entry are reported and skipped.
//
// Absolute ns/op is only meaningful on the hardware that recorded the
// baseline: when the CPU strings differ, ns/op comparisons are reported
// but downgraded to advisory, and only the machine-independent B/op and
// allocs/op checks can fail the gate.
func compare(baselinePath string, fresh Report, limit float64, prefixes []string, w io.Writer) (int, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return 0, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	// Unknown machine identity (either CPU string empty) is treated like
	// a mismatch: strict ns/op gating is only honest when the run
	// provably happened on the hardware that recorded the baseline.
	nsAdvisory := base.CPU == "" || fresh.CPU == "" || base.CPU != fresh.CPU
	if nsAdvisory {
		fmt.Fprintf(w, "benchjson: baseline CPU %q vs current %q — ns/op comparisons are advisory, only B/op and allocs/op can fail the gate\n",
			base.CPU, fresh.CPU)
	}
	// The gate runs benchmarks with -count > 1 and keeps each name's
	// smallest observation of each measurement: the minimum is the
	// least-noise estimate of a benchmark's true cost, so a loaded CI
	// machine doesn't flag phantom regressions (real regressions show in
	// every repetition).
	freshBy := make(map[string]Result, len(fresh.Results))
	for _, r := range fresh.Results {
		if best, ok := freshBy[r.Name]; ok {
			r.NsPerOp = min(r.NsPerOp, best.NsPerOp)
			r.BytesPerOp = min(r.BytesPerOp, best.BytesPerOp)
			r.AllocsPerOp = min(r.AllocsPerOp, best.AllocsPerOp)
		}
		freshBy[r.Name] = r
	}
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	failures := 0
	for _, b := range base.Results {
		if !gated(b.Name, prefixes) {
			continue
		}
		f, ok := freshBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: gated benchmark missing from this run\n", b.Name)
			failures++
			continue
		}
		nsRatio := f.NsPerOp/b.NsPerOp - 1
		status := "ok"
		fail := false
		if nsRatio > limit && !nsAdvisory {
			status = "FAIL"
			fail = true
		}
		memNote := ""
		for _, m := range []struct {
			unit        string
			base, fresh float64
		}{{"B/op", b.BytesPerOp, f.BytesPerOp}, {"allocs/op", b.AllocsPerOp, f.AllocsPerOp}} {
			if m.base <= 0 {
				continue
			}
			ratio := m.fresh/m.base - 1
			memNote += fmt.Sprintf(", %s %+.1f%%", m.unit, 100*ratio)
			if ratio > limit {
				status = "FAIL"
				fail = true
			}
		}
		fmt.Fprintf(w, "%-4s %s: ns/op %.0f -> %.0f (%+.1f%%)%s\n",
			status, b.Name, b.NsPerOp, f.NsPerOp, 100*nsRatio, memNote)
		if fail {
			failures++
		}
	}
	for _, f := range fresh.Results {
		if !gated(f.Name, prefixes) {
			continue
		}
		if _, ok := baseBy[f.Name]; !ok {
			fmt.Fprintf(w, "new  %s: no baseline entry, skipped\n", f.Name)
		}
	}
	return failures, nil
}

// parse reads `go test -bench` output and returns the report with its
// results sorted by benchmark name, so snapshots diff cleanly PR to PR.
func parse(in io.Reader) (Report, error) {
	rep := Report{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Name < rep.Results[j].Name })
	return rep, nil
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkE6SchemeComparison-8  3  736063066 ns/op  286013856 B/op  4522096 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	r := Result{Name: strings.TrimSuffix(fields[0], cpuSuffix(fields[0]))}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = n
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, r.NsPerOp > 0
}

// cpuSuffix returns the trailing "-<gomaxprocs>" tag of a benchmark name
// (empty when absent) so names stay stable across machines.
func cpuSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}
