package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// setRun is one child run of a set, parsed from its output.
type setRun struct {
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	// Digests maps each cell's seed to its output digest.
	Digests map[string]string `json:"digests"`
}

// setWorkload is every run of one workload in a set, in run order.
type setWorkload struct {
	Name string   `json:"name"`
	Runs []setRun `json:"runs"`
}

// setFile is what -json writes and -compare reads.
type setFile struct {
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	GoVersion string        `json:"go_version"`
	NumCPU    int           `json:"num_cpu"`
	Workloads []setWorkload `json:"workloads"`
}

// runSet runs every named workload reps times, round-robin so one slow
// spell on a shared host cannot hit every run of one workload, each run
// in a fresh child process so heap, GC state and peak RSS stay apart.
// With trace it ends with one profiled run per workload. It prints
// medians and quartiles per metric and fails when any cell failed or a
// seed's digest differs between runs.
func runSet(names []string, seed int64, reps int, seconds float64, trace bool, jsonPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := setFile{Seed: seed, Seconds: seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	for _, n := range names {
		if _, err := workloadByName(n); err != nil {
			return err
		}
		set.Workloads = append(set.Workloads, setWorkload{Name: n})
	}
	traced := 0
	if trace {
		traced = 1
	}
	for r := 0; r < reps+traced; r++ {
		for i := range set.Workloads {
			w := &set.Workloads[i]
			run := runChild(exe, w.Name, seed, seconds, r == reps)
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d: mn_s_per_s=%.6g correct=%v\n",
				w.Name, r+1, reps+traced, run.Values["mn_s_per_s"], run.Correct)
			w.Runs = append(w.Runs, run)
		}
	}
	fmt.Printf("# seed=%d reps=%d seconds=%g %s nproc=%d\n", seed, reps, seconds, set.GoVersion, set.NumCPU)
	failed := 0
	for _, w := range set.Workloads {
		failed += printWorkload(w)
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed cells or digest mismatches", failed)
	}
	return nil
}

// runChild runs one workload in a child process and parses its output.
func runChild(exe, name string, seed int64, seconds float64, trace bool) setRun {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	run := parseRun(out)
	run.Trace = trace
	if err != nil {
		run.Correct = false
		if run.Failed == 0 {
			run.Attempted, run.Failed = run.Attempted+1, 1
		}
	}
	return run
}

// parseRun reads the lines runOne prints.
func parseRun(out []byte) setRun {
	run := setRun{Values: map[string]float64{}, Digests: map[string]string{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var res result
			if json.Unmarshal([]byte(line), &res) == nil {
				run.Correct, run.Attempted, run.Failed = res.Correct, res.Attempted, res.Failed
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		if f[1] == "digest" {
			run.Digests[f[2]] = f[3]
		} else if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			run.Values[f[1]] = v
		}
	}
	return run
}

// values collects metric name over the untraced runs of w.
func (w setWorkload) values(name string) []float64 {
	var xs []float64
	for _, r := range w.Runs {
		if v, ok := r.Values[name]; ok && !r.Trace {
			xs = append(xs, v)
		}
	}
	return xs
}

// printWorkload prints the set's summary of one workload and returns its
// failure count: failed cells plus seeds whose digest differs between
// runs.
func printWorkload(w setWorkload) int {
	var tracedRun *setRun
	attempted, failed := 0, 0
	digests := map[string]map[string]bool{}
	for i, r := range w.Runs {
		attempted += r.Attempted
		failed += r.Failed
		if r.Trace {
			tracedRun = &w.Runs[i]
		}
		for s, d := range r.Digests {
			if digests[s] == nil {
				digests[s] = map[string]bool{}
			}
			digests[s][d] = true
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if xs := w.values(d.Name); len(xs) > 0 {
			q1, m, q3 := quartiles(xs)
			fmt.Printf("%s %s %.6g %s n=%d q1=%.6g q3=%.6g spread=%.1f%%\n",
				w.Name, d.Name, m, d.Unit, len(xs), q1, q3, 100*spread(xs))
		} else if v, ok := tracedRun.value(d.Name); ok {
			fmt.Printf("%s %s %.6g %s traced\n", w.Name, d.Name, v, d.Unit)
		}
	}
	seeds := make([]string, 0, len(digests))
	for s := range digests {
		seeds = append(seeds, s)
	}
	sort.Strings(seeds)
	for _, s := range seeds {
		if len(digests[s]) == 1 {
			for d := range digests[s] {
				fmt.Printf("%s digest %s %s\n", w.Name, s, d)
			}
			continue
		}
		failed++
		fmt.Printf("%s digest %s MISMATCH across runs (%d distinct)\n", w.Name, s, len(digests[s]))
	}
	fmt.Printf("%s fail_frac %.6g ratio (%d of %d cells)\n", w.Name, ratio(uint64(failed), uint64(attempted)), failed, attempted)
	if tracedRun != nil {
		var layers float64
		for _, l := range layerNames {
			layers += tracedRun.Values[l+".cpu_s"]
		}
		fmt.Printf("%s profile_coverage %.3f ratio (layer cpu_s sum over process.cpu_s)\n",
			w.Name, layers/tracedRun.Values["process.cpu_s"])
		if m := median(w.values("mn_s_per_s")); m > 0 {
			fmt.Printf("%s tracing_overhead %.3f ratio (1 - traced mn_s_per_s / untraced median)\n",
				w.Name, 1-tracedRun.Values["mn_s_per_s"]/m)
		}
	}
	return failed
}

func (r *setRun) value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	v, ok := r.Values[name]
	return v, ok
}

// compareFiles compares every end-to-end metric of every workload two
// sets share and exits non-zero when any is worse by more than its
// bound.
func compareFiles(pathA, pathB string) int {
	a, err := readSet(pathA)
	if err == nil {
		var b *setFile
		if b, err = readSet(pathB); err == nil {
			return compareSets(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareSets(a, b *setFile) int {
	code := 0
	fmt.Printf("# A seed=%d seconds=%g %s nproc=%d; B seed=%d seconds=%g %s nproc=%d\n",
		a.Seed, a.Seconds, a.GoVersion, a.NumCPU, b.Seed, b.Seconds, b.GoVersion, b.NumCPU)
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, d := range endToEnd {
				xa, xb := wa.values(d.Name), wb.values(d.Name)
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				worse, v := verdict(d, xa, xb)
				a1, am, a3 := quartiles(xa)
				b1, bm, b3 := quartiles(xb)
				fmt.Printf("%s %s A %.6g [%.6g %.6g] B %.6g [%.6g %.6g] %s worse=%+.1f%% bound=%.0f%% %s\n",
					wa.Name, d.Name, am, a1, a3, bm, b1, b3, d.Unit, 100*worse, 100*d.Bound, v)
				if v == "worse" {
					code = 1
				}
			}
		}
	}
	return code
}
