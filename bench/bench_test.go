package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/simtime.(*Scheduler).Step"}, "simtime"},
		{[]string{"repro/internal/simtime.(*Rand).Fork"}, "simtime.rand"},
		{[]string{"repro/internal/simtime.NewRand (inline)"}, "simtime.rand"},
		{[]string{"repro/internal/core.(*scenario).runMultiTier.func3"}, "core"},
		{[]string{"repro/internal/metrics.(*Histogram).Observe (inline)", "repro/internal/core.Run"}, "metrics"},
		// The innermost repo frame wins; runtime and stdlib frames above it
		// are charged to it.
		{[]string{
			"math/rand.seedrand (inline)",
			"math/rand.(*rngSource).Seed",
			"repro/internal/simtime.(*Rand).source",
			"repro/internal/mobility.NewManhattan",
			"repro/internal/core.Run",
		}, "simtime.rand"},
		{[]string{"runtime.mallocgc", "repro/internal/packet.(*Arena).New", "repro/internal/traffic.(*CBR).emit"}, "packet"},
		// Packages outside the layer list are skipped, not charged; the
		// harness's own frames are the bench layer.
		{[]string{"repro/internal/experiments.DegradationSpec", "main.main"}, "bench"},
		{[]string{"slices.pdqsort[...]", "main.(*refKernel).run", "main.measure"}, "bench"},
		{[]string{"repro/internal/core.Run", "main.measure"}, "core"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// tracesOutput is `go tool pprof -traces -unit=B` output in the shape
// the toolchain prints: a header, label lines, a zero-valued trace.
const tracesOutput = `File: bench
Build ID: 1b5c8ff13d5f6e9c4f62fc26b83813ac9be21cfb
Type: alloc_space
Time: 2026-10-16 02:07:22 UTC
-----------+-------------------------------------------------------
         0   runtime/pprof.writeHeapInternal
             main.main
-----------+-------------------------------------------------------
     bytes:  256kB
   666237B   repro/internal/simtime.(*Rand).source (inline)
             repro/internal/simtime.(*Rand).Intn
             repro/internal/core.Run
-----------+-------------------------------------------------------
     bytes:  1kB
      100B   compress/flate.NewWriter (inline)
             runtime/pprof.profileWriter
-----------+-------------------------------------------------------
10000000000B   runtime.mallocgc
             repro/internal/netsim.(*Network).deliver
             repro/internal/core.Run
-----------+-------------------------------------------------------
       50B   repro/internal/netsim.(*flight).fire
`

func TestParseTraces(t *testing.T) {
	got, err := parseTraces([]byte(tracesOutput), "B")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"bench": 0, "simtime.rand": 666237, "runtime": 100, "netsim": 10000000050}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTraces = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		in := slices.Clone(c.xs)
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("quartiles reordered its input: %v", c.xs)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "mn_s_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		d    metricDef
		b    []float64
		want string
	}{
		{higher, []float64{101, 100, 99, 102, 100}, "same"},
		{higher, []float64{80, 81, 79, 80, 82}, "worse"},
		{higher, []float64{130, 131, 129, 130, 132}, "better"},
		{lower, []float64{80, 81, 79, 80, 82}, "better"},
		{lower, []float64{130, 131, 129, 130, 132}, "worse"},
		// Spread wider than the bound: no call either way...
		{higher, []float64{60, 80, 100, 120, 140}, "unresolved"},
		// ...unless every candidate run beats every baseline run.
		{lower, []float64{10, 20, 40, 60, 80}, "better"},
	}
	for _, c := range cases {
		if _, got := verdict(c.d, base, c.b); got != c.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", c.d.Better, c.b, got, c.want)
		}
	}
}

func TestCheck(t *testing.T) {
	traffic := workload{traffic: true, mobile: true}
	still := workload{}
	cases := []struct {
		w    workload
		s    core.Summary
		fail bool
	}{
		{traffic, core.Summary{Sent: 10, Delivered: 9, Handoffs: 1}, false},
		{traffic, core.Summary{Sent: 10, Delivered: 11, Handoffs: 1}, true},
		{traffic, core.Summary{Handoffs: 1}, true},
		{traffic, core.Summary{Sent: 10, Handoffs: 1}, true},
		{traffic, core.Summary{Sent: 10, Delivered: 9}, true},
		{still, core.Summary{}, false},
		{still, core.Summary{Sent: 1, Delivered: 2}, true},
	}
	for _, c := range cases {
		if got := check(c.w, c.s) != ""; got != c.fail {
			t.Errorf("check(traffic=%v mobile=%v, %+v) failed=%v, want %v", c.w.traffic, c.w.mobile, c.s, got, c.fail)
		}
	}
}

// TestWorkloadsTiny builds and runs every workload at a hundredth of its
// population: every cell passes its checks, the outputs repeat exactly
// for a seed and differ between seeds, and the run reports every
// metric it defines.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := measure(w, 5, 1e-9, 0.01, "")
			if err != nil {
				t.Fatal(err)
			}
			if a.failed != 0 {
				t.Fatalf("%d failed cells: %v", a.failed, a.problems)
			}
			b, err := measure(w, 5, 1e-9, 0.01, "")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.digests, b.digests) {
				t.Errorf("same seed, different digests:\n%v\n%v", a.digests, b.digests)
			}
			c, err := measure(w, 6, 1e-9, 0.01, "")
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(a.digests, c.digests) {
				t.Errorf("seeds 5 and 6 gave the same digests %v", a.digests)
			}
			var want []string
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if !layerCostMetric(d.Name) {
					want = append(want, d.Name)
				}
			}
			if got := names(a); !slices.Equal(got, sorted(want)) {
				t.Errorf("untraced run reports %v, want %v", got, sorted(want))
			}
		})
	}
}

// TestTracedRunReportsEveryLayer profiles one tiny run and checks it
// reports every per-layer metric, each layer's CPU and bytes included.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	w, err := workloadByName("media-1k")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := measure(w, 1, 1e-9, 0.05, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, v := range rep.values {
		got[v.name] = true
	}
	for _, d := range perLayer {
		if !got[d.Name] {
			t.Errorf("traced run does not report %s", d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness
// in step: the same workloads in the same order, and the same metrics
// with the same units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var jsonNames, codeNames []string
	for _, w := range spec.Workloads {
		jsonNames = append(jsonNames, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		codeNames = append(codeNames, w.name)
	}
	if !slices.Equal(jsonNames, codeNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", jsonNames, codeNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nharness %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nharness %v", spec.PerLayer, perLayer)
	}
}

// layerCostMetric reports whether name is a profiled per-layer metric.
func layerCostMetric(name string) bool {
	for _, l := range layerNames {
		if name == l+".cpu_s" || name == l+".alloc_mb" {
			return true
		}
	}
	return false
}

func names(rep *runReport) []string {
	var out []string
	for _, v := range rep.values {
		out = append(out, v.name)
	}
	return sorted(out)
}

func sorted(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}
