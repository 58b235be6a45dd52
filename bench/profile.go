package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// layerNames are the per-layer rollup keys: the repo's internal
// packages, the rng split out of simtime, bench for the harness's own
// frames (reference kernel, digests) and runtime for samples with no
// repo frame (GC workers, scheduler).
var layerNames = []string{
	"addr", "auth", "capacity", "cellularip", "core", "degrade", "faults",
	"fleet", "geo", "metrics", "mobileip", "mobility", "multitier", "netsim",
	"obs", "packet", "qos", "radio", "rsmc", "simtime", "simtime.rand",
	"topology", "traffic", "bench", "runtime",
}

const repoPrefix = "repro/internal/"

// layerOf maps one pprof frame to its layer, or "" when the frame is not
// in a repo layer. Frames of simtime.(*Rand) and simtime.NewRand are the
// simtime.rand layer.
func layerOf(frame string) string {
	frame = strings.TrimSuffix(frame, " (inline)")
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(frame, repoPrefix)
	if !ok {
		return ""
	}
	pkg, member, _ := strings.Cut(rest, ".")
	if pkg == "simtime" && (strings.HasPrefix(member, "(*Rand).") ||
		member == "NewRand" || strings.HasPrefix(member, "NewRand.")) {
		return "simtime.rand"
	}
	if !slices.Contains(layerNames, pkg) {
		return ""
	}
	return pkg
}

// attribute returns the layer of a stack listed innermost frame first:
// the innermost frame in a repo layer, else runtime.
func attribute(stack []string) string {
	for _, f := range stack {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return "runtime"
}

// parseTraces sums the sample values of `go tool pprof -traces -unit=U`
// output by layer. Each trace is a separator line, optional label lines,
// then the value and innermost frame on one line and the outer frames
// on the lines below.
func parseTraces(out []byte, unit string) (map[string]float64, error) {
	sums := map[string]float64{}
	var stack []string
	var v float64
	inTrace := false
	flush := func() {
		if inTrace {
			sums[attribute(stack)] += v
		}
		stack, inTrace = stack[:0], false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started || strings.TrimSpace(line) == "" {
			continue
		}
		if inTrace {
			stack = append(stack, strings.TrimSpace(line))
			continue
		}
		head, frame, ok := strings.Cut(strings.TrimLeft(line, " "), "   ")
		if !ok {
			continue // a label line such as "bytes:  256kB"
		}
		x, err := strconv.ParseFloat(strings.TrimSuffix(head, unit), 64)
		if err != nil {
			continue
		}
		v, inTrace = x, true
		stack = append(stack, strings.TrimSpace(frame))
	}
	flush()
	return sums, sc.Err()
}

// layerCost is one layer's share of a profiled run.
type layerCost struct{ cpuS, allocMB float64 }

// rollupLayers attributes the CPU and allocation profiles to layers
// through `go tool pprof -traces`.
func rollupLayers(cpuPath, allocPath string) (map[string]layerCost, error) {
	cpu, err := pprofTraces(cpuPath, "ns", "")
	if err != nil {
		return nil, err
	}
	alloc, err := pprofTraces(allocPath, "B", "alloc_space")
	if err != nil {
		return nil, err
	}
	out := map[string]layerCost{}
	for _, l := range layerNames {
		out[l] = layerCost{cpuS: cpu[l] / 1e9, allocMB: alloc[l] / (1 << 20)}
	}
	return out, nil
}

func pprofTraces(path, unit, index string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-traces", "-unit=" + unit}
	if index != "" {
		args = append(args, "-sample_index="+index)
	}
	cmd := exec.Command("go", append(args, path)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, stderr.String())
	}
	return parseTraces(out, unit)
}
