// Command bench is the repository's benchmark: it runs fixed simulator
// workloads through the public scenario API, checks their outputs and
// prints end-to-end and per-layer metrics. See README.md.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, in this process
//	bench -seed N [-reps R] [-trace 1] [-json F]      every workload, one child per run
//	bench -compare A.json B.json                      two sets, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload; without -reps it runs once in this process")
	seed := fs.Int64("seed", 1, "base seed; cell i of a workload runs with seed+i")
	seconds := fs.Float64("seconds", 20, "wall seconds one run measures, in whole passes over its cells")
	trace := fs.Int("trace", 0, "1 profiles the run and reports per-layer metrics")
	reps := fs.Int("reps", 0, "runs per workload, round-robin, each in a fresh child process")
	jsonPath := fs.String("json", "", "write the runs of a set to this file")
	compare := fs.Bool("compare", false, "compare two -json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *reps < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -reps non-negative and -trace 0 or 1")
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *name != "" && *reps == 0:
		return runOne(*name, *seed, *seconds, *trace == 1)
	}
	names := []string{*name}
	if *name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if err := runSet(names, *seed, max(*reps, 1), *seconds, *trace == 1, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process. It prints every metric
// it measured as "workload metric value unit", each cell's digest as
// "workload digest seed sha256", and last the result line: the
// end-to-end metrics, or with trace the per-layer ones.
func runOne(name string, seed int64, seconds float64, trace bool) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	profDir := ""
	if trace {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		profDir = filepath.Join(filepath.Dir(exe), "profiles")
	}
	rep, err := measure(w, seed, seconds, 1, profDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
	}
	fmt.Printf("# %s seed=%d passes=%d cells=%d attempted=%d failed=%d\n",
		name, seed, rep.passes, len(rep.digests), rep.attempted, rep.failed)
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]resultValue{}}
	reported := endToEnd
	if trace {
		reported = perLayer
	}
	for _, v := range rep.values {
		unit := defByName[v.name].Unit
		fmt.Printf("%s %s %s %s\n", name, v.name, strconv.FormatFloat(v.v, 'f', -1, 64), unit)
		if slices.ContainsFunc(reported, func(d metricDef) bool { return d.Name == v.name }) {
			res.Metrics[v.name] = resultValue{v.v, unit}
		}
	}
	for i, d := range rep.digests {
		fmt.Printf("%s digest %d %s\n", name, seed+int64(i), d)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
