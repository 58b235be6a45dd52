package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/topology"
)

// setupReps is how many times a run repeats the set-up of every cell;
// setup_s is their median.
const setupReps = 5

// inputReps is how many times the outside-timed input calls repeat; each
// reported time is their median.
const inputReps = 5

// value is one measured metric of a run; its unit is in defByName.
type value struct {
	name string
	v    float64
}

// runReport is what one run of one workload measured.
type runReport struct {
	passes    int
	attempted int
	failed    int
	problems  []string
	// digests holds one sha256 per cell, indexed like the cell list;
	// cell i ran with seed+i.
	digests []string
	values  []value
}

func (r *runReport) add(name string, v float64) {
	if _, ok := defByName[name]; !ok {
		panic("bench: metric " + name + " is not defined")
	}
	r.values = append(r.values, value{name, v})
}

func (r *runReport) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// config returns the cell's scenario, dimensioned when the cell asks.
func (c cell) config() (core.Config, error) {
	cfg := c.cfg
	if c.dimension {
		plan, err := capacity.New(cfg.NumMNs, *cfg.Fleet, capacity.PlannerConfig{})
		if err != nil {
			return cfg, fmt.Errorf("dimensioning %d MNs: %w", cfg.NumMNs, err)
		}
		cfg.Capacity = plan
	}
	return cfg, nil
}

// digest fingerprints a run's full output. It must be taken before any
// metric lookup: Registry.Counter creates the names it is asked for.
func digest(res *core.Result) string {
	h := sha256.New()
	h.Write([]byte(res.Registry.Render()))
	h.Write([]byte(res.Summary.String()))
	return hex.EncodeToString(h.Sum(nil))
}

// check returns why a cell's result is wrong, or "" when it is right.
func check(w workload, s core.Summary) string {
	switch {
	case s.Delivered > s.Sent:
		return fmt.Sprintf("delivered %d > sent %d", s.Delivered, s.Sent)
	case w.traffic && (s.Sent == 0 || s.Delivered == 0):
		return fmt.Sprintf("traffic workload carried sent=%d delivered=%d", s.Sent, s.Delivered)
	case w.mobile && s.Handoffs == 0:
		return "mobile workload made no handoffs"
	}
	return ""
}

// measure runs workload w for at least seconds of wall time in whole
// passes over its cells, then times set-up and the input calls. With
// profDir set it records CPU and allocation profiles of the passes
// there and rolls them up by layer. A returned error means a cell could
// not run at all; wrong outputs are counted in the report instead.
func measure(w workload, seed int64, seconds float64, scale float64, profDir string) (*runReport, error) {
	cells := w.cells(seed, scale)
	rep := &runReport{digests: make([]string, len(cells))}
	var cpuPath, allocPath string
	var cpuFile *os.File
	if profDir != "" {
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			return nil, err
		}
		base := filepath.Join(profDir, fmt.Sprintf("%s-seed%d", w.name, seed))
		cpuPath, allocPath = base+".cpu.pprof", base+".alloc.pprof"
		var err error
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		defer cpuFile.Close()
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	ref := newRefKernel()
	before, cpuBefore := readRuntime(), processCPU()
	ps, err := runPasses(rep, w, cells, seconds, ref)
	if err != nil {
		return nil, err
	}
	cpuUsed, after := processCPU()-cpuBefore, readRuntime()
	if profDir != "" {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := writeAllocProfile(allocPath); err != nil {
			return nil, err
		}
	}

	// Each cell's time is its median over the passes, so one slow spell
	// on a shared host moves one sample, not the result.
	var mnSeconds, wall, scaled float64
	for i, c := range cells {
		mnSeconds += float64(c.cfg.NumMNs) * c.cfg.Duration.Seconds()
		wall += median(ps.walls[i])
		scaled += median(ps.scaled[i])
	}
	rep.add("mn_s_per_s", mnSeconds/scaled)
	setup, setupWall, err := timeSetup(cells, ref)
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", setup)
	rep.add("peak_rss_mb", peakRSSMiB())

	p := float64(rep.passes)
	if profDir != "" {
		layers, err := rollupLayers(cpuPath, allocPath)
		if err != nil {
			return nil, err
		}
		for _, l := range layerNames {
			rep.add(l+".cpu_s", layers[l].cpuS/p)
			rep.add(l+".alloc_mb", layers[l].allocMB/p)
		}
	}
	rep.add("host.mn_s_per_s", mnSeconds/wall)
	rep.add("host.setup_s", setupWall)
	rep.add("host.ref_s", median(ref.times))
	rep.add("process.cpu_s", cpuUsed/p)
	if err := timeInputs(rep, cells); err != nil {
		return nil, err
	}
	rep.add("gc.alloc_mb", (after.allocBytes-before.allocBytes)/p/(1<<20))
	rep.add("gc.alloc_objects", (after.allocObjects-before.allocObjects)/p)
	rep.add("gc.cycles", (after.gcCycles-before.gcCycles)/p)
	rep.add("gc.cpu_s", (after.gcCPU-before.gcCPU)/p)
	addCountMetrics(rep, ps.sums)
	return rep, nil
}

// passStats is what the measured passes of a run recorded, per cell one
// value per pass.
type passStats struct {
	walls  [][]float64 // wall seconds
	scaled [][]float64 // seconds at the reference host's speed
	sums   map[string]uint64
}

// runPasses runs whole passes over cells until seconds of wall time have
// gone by. A cell's time covers dimensioning and core.Run. After each
// cell it collects the cell's garbage, so the next starts from the heap
// a fresh process would, and times the reference kernel. The first pass
// checks every cell's outputs and sums its work counts; later passes
// must repeat its digests.
func runPasses(rep *runReport, w workload, cells []cell, seconds float64, ref *refKernel) (passStats, error) {
	ps := passStats{walls: make([][]float64, len(cells)), scaled: make([][]float64, len(cells)),
		sums: map[string]uint64{}}
	runtime.GC()
	ref.start()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		for i, c := range cells {
			t0 := time.Now()
			cfg, err := c.config()
			if err != nil {
				return ps, err
			}
			res, err := core.Run(cfg)
			if err != nil {
				return ps, fmt.Errorf("cell %d (seed %d): %w", i, cfg.Seed, err)
			}
			wall := time.Since(t0).Seconds()
			rep.attempted++
			d := digest(res)
			if pass == 0 {
				rep.digests[i] = d
				if why := check(w, res.Summary); why != "" {
					rep.fail("cell %d (seed %d): %s", i, cfg.Seed, why)
				}
				addCounts(ps.sums, res)
			} else if d != rep.digests[i] {
				rep.fail("cell %d (seed %d): pass %d digest %s differs from pass 0", i, cfg.Seed, pass, d[:12])
			}
			runtime.GC()
			ps.walls[i] = append(ps.walls[i], wall)
			ps.scaled[i] = append(ps.scaled[i], ref.scale(wall))
		}
		rep.passes++
	}
	return ps, nil
}

// timeSetup returns the median over setupReps of the summed set-up time
// of every cell, at the reference host's speed and as measured. Set-up
// is dimensioning plus a core.Run that stops at the first nanosecond, so
// it covers building the arena, the population and the scheme and
// firing the time-zero events.
func timeSetup(cells []cell, ref *refKernel) (scaled, wall float64, err error) {
	var scaledReps, wallReps []float64
	for range setupReps {
		var t float64
		for _, c := range cells {
			runtime.GC()
			t0 := time.Now()
			cfg, err := c.config()
			if err != nil {
				return 0, 0, err
			}
			cfg.Duration = time.Nanosecond
			if _, err := core.Run(cfg); err != nil {
				return 0, 0, fmt.Errorf("setup of seed %d: %w", cfg.Seed, err)
			}
			t += time.Since(t0).Seconds()
		}
		runtime.GC()
		wallReps = append(wallReps, t)
		scaledReps = append(scaledReps, ref.scale(t))
	}
	return median(scaledReps), median(wallReps), nil
}

// timeInputs times, outside the measured run, the input calls a cell's
// set-up makes: capacity.New, topology.Build and fleet.Spec.Assign,
// summed over the cells. They are a small share of set-up; reporting
// them keeps anyone from optimising them by mistake.
func timeInputs(rep *runReport, cells []cell) error {
	var capNew, build, assign []float64
	for range inputReps {
		var c0, b0, a0 float64
		for _, c := range cells {
			t0 := time.Now()
			cfg, err := c.config()
			if err != nil {
				return err
			}
			c0 += time.Since(t0).Seconds()
			top := cfg.Topology
			if cfg.Capacity != nil {
				top = cfg.Capacity.Topology
			}
			t0 = time.Now()
			if _, err := topology.Build(top); err != nil {
				return fmt.Errorf("topology: %w", err)
			}
			b0 += time.Since(t0).Seconds()
			if cfg.Fleet != nil {
				t0 = time.Now()
				cfg.Fleet.Assign(cfg.NumMNs, cfg.Seed)
				a0 += time.Since(t0).Seconds()
			}
		}
		capNew, build, assign = append(capNew, c0), append(build, b0), append(assign, a0)
	}
	rep.add("capacity.new_s", median(capNew))
	rep.add("topology.build_s", median(build))
	rep.add("fleet.assign_s", median(assign))
	return nil
}

// registryCounters are the registry counters the work-count metrics sum.
var registryCounters = []string{
	"tier.admission.admitted", "tier.admission.shed_capacity",
	"tier.admission.shed_policy", "tier.admission.shed_fault",
	"mip.registration.retries", "mip.ha.intercepts",
	"cip.route_updates", "cip.bicast_duplicates",
	"ctl.degrade.deferred", "ctl.degrade.preempted", "ctl.degrade.breaker.paced",
	"fault.recovery.affected", "fault.recovery.recovered",
}

// addCounts sums one cell's work counts into sums. Call it only after
// the digest is taken.
func addCounts(sums map[string]uint64, res *core.Result) {
	s := res.Summary
	sums["sent"] += s.Sent
	sums["delivered"] += s.Delivered
	sums["handoffs"] += s.Handoffs
	sums["signal_msgs"] += s.SignalingMsgs
	sums["signal_bytes"] += s.SignalingBytes
	for _, name := range registryCounters {
		sums[name] += res.Registry.Counter(name).Value()
	}
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// addCountMetrics reports one pass's work counts and useful/attempt
// ratios. Counts are exact and repeat on every pass of a seed.
func addCountMetrics(rep *runReport, s map[string]uint64) {
	rep.add("core.data_sent", float64(s["sent"]))
	rep.add("core.data_delivered", float64(s["delivered"]))
	rep.add("core.delivery_ratio", ratio(s["delivered"], s["sent"]))
	rep.add("core.handoffs", float64(s["handoffs"]))
	rep.add("core.signal_msgs", float64(s["signal_msgs"]))
	rep.add("core.signal_bytes", float64(s["signal_bytes"]))
	admitted := s["tier.admission.admitted"]
	rep.add("multitier.admit_ratio", ratio(admitted, admitted+s["tier.admission.shed_capacity"]+
		s["tier.admission.shed_policy"]+s["tier.admission.shed_fault"]))
	rep.add("mobileip.reg_retries", float64(s["mip.registration.retries"]))
	rep.add("mobileip.ha_intercepts", float64(s["mip.ha.intercepts"]))
	rep.add("cellularip.route_updates", float64(s["cip.route_updates"]))
	rep.add("cellularip.bicast_duplicates", float64(s["cip.bicast_duplicates"]))
	rep.add("degrade.deferred", float64(s["ctl.degrade.deferred"]))
	rep.add("degrade.preempted", float64(s["ctl.degrade.preempted"]))
	rep.add("degrade.paced", float64(s["ctl.degrade.breaker.paced"]))
	rep.add("faults.recovered_ratio", ratio(s["fault.recovery.recovered"], s["fault.recovery.affected"]))
}

// runtimeSnapshot is the runtime/metrics state the gc.* metrics diff.
type runtimeSnapshot struct {
	allocBytes, allocObjects, gcCycles, gcCPU float64
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnapshot{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCycles:     float64(s[2].Value.Uint64()),
		gcCPU:        s[3].Value.Float64(),
	}
}

// processCPU is the user plus system CPU seconds this process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is this process's peak resident set; Linux reports Maxrss
// in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// writeAllocProfile writes the allocation profile after a GC, so it
// covers every allocation made so far.
func writeAllocProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("alloc profile: %w", err)
	}
	return f.Close()
}
