// Package repro's benchmark harness: one Benchmark per experiment
// E1–E10 (DESIGN.md §3 maps E1–E8 to a paper figure/claim; E9 is the
// fleet scale sweep and E10 the capacity×population matrix, both at
// reduced populations) plus micro-benchmarks of the
// simulator hot paths. Experiment benches run time-scaled
// scenarios; their per-op cost is "wall time to regenerate the
// experiment", which tracks simulation throughput.
package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/multitier"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// benchOpt pins Parallel to 1 so the per-experiment benches keep
// measuring raw single-worker simulation throughput; the suite-level
// benches below compare sequential vs worker-pool execution.
var benchOpt = experiments.Options{Seed: 11, TimeScale: 0.05, Parallel: 1}

func benchExperiment(b *testing.B, run func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1MobileIPRegistration(b *testing.B) {
	benchExperiment(b, experiments.E1MobileIPProcedures)
}

func BenchmarkE2CellularIPHandoff(b *testing.B) {
	benchExperiment(b, experiments.E2CellularIPHandoff)
}

func BenchmarkE3LocationManagement(b *testing.B) {
	benchExperiment(b, experiments.E3LocationManagement)
}

func BenchmarkE4InterDomainHandoff(b *testing.B) {
	benchExperiment(b, experiments.E4InterDomain)
}

func BenchmarkE5IntraDomainHandoff(b *testing.B) {
	benchExperiment(b, experiments.E5IntraDomain)
}

func BenchmarkE6SchemeComparison(b *testing.B) {
	benchExperiment(b, experiments.E6SchemeComparison)
}

func BenchmarkE7ResourceSwitching(b *testing.B) {
	benchExperiment(b, experiments.E7ResourceSwitching)
}

func BenchmarkE8PagingAndRSMCLoad(b *testing.B) {
	benchExperiment(b, experiments.E8PagingAndRSMCLoad)
}

// BenchmarkE9ScaleSweep tracks fleet-workload throughput at a reduced
// population (the full 500→10k axis is cmd/mmscale's job): two
// populations of the default mixed-profile fleet under the multi-tier
// scheme, with the per-scenario packet arena on.
func BenchmarkE9ScaleSweep(b *testing.B) {
	sw := experiments.ScaleSweep{
		Populations: []int{100, 200},
		Schemes:     []core.Scheme{core.SchemeMultiTier},
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9ScaleSweep(benchOpt, sw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Scale10k is the scale-sweep headline column: the full
// 10k-MN mixed-profile fleet under the multi-tier scheme, one cell of
// the E9 axis (cmd/mmscale sweeps the rest). Tick groups keep the event
// heap O(distinct intervals) and the bucket candidate cache keeps each
// measurement tick O(nearby), so this tracks raw large-population
// simulation throughput.
func BenchmarkE9Scale10k(b *testing.B) {
	sw := experiments.ScaleSweep{
		Populations: []int{10000},
		Schemes:     []core.Scheme{core.SchemeMultiTier},
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9ScaleSweep(benchOpt, sw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Scale10kParallelMeasure is the same column with the
// measurement phase sharded across GOMAXPROCS workers — byte-identical
// output, wall time bounded by the sequential decision phase. On a
// single-core host it degenerates to the sequential cost.
func BenchmarkE9Scale10kParallelMeasure(b *testing.B) {
	sw := experiments.ScaleSweep{
		Populations: []int{10000},
		Schemes:     []core.Scheme{core.SchemeMultiTier},
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
	opt := benchOpt
	opt.MeasureWorkers = runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9ScaleSweep(opt, sw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10CapacityMatrix tracks dimensioned-arena throughput at a
// reduced population (the full 500→10k matrix is cmd/mmscale
// -dimension's job): two populations, fixed and dimensioned columns,
// multi-tier only — the planner, root-grid build and budget-override
// paths all on the clock.
func BenchmarkE10CapacityMatrix(b *testing.B) {
	m := experiments.CapacityMatrix{
		Populations: []int{100, 200},
		Schemes:     []core.Scheme{core.SchemeMultiTier},
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10CapacityMatrix(benchOpt, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Resilience tracks fault-injection throughput: the reduced
// resilience matrix (root-outage profile, every scheme, one population)
// keeps the fault scheduler, forced-deregistration flush, retransmission
// backoff and recovery-tracking machinery on the clock.
func BenchmarkE11Resilience(b *testing.B) {
	m := experiments.SuiteResilienceMatrix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E11Resilience(benchOpt, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13ClosedLoop regenerates the closed-loop suite cell (the
// hotspot crowd under a root blackout, open and closed): its per-op
// cost prices the whole feedback loop — sampling, windowed monitor
// evaluation, alert-driven budget shifts and pre-paging — on top of a
// faulted multi-tier run.
func BenchmarkE13ClosedLoop(b *testing.B) {
	m := experiments.SuiteClosedLoopMatrix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E13ClosedLoop(benchOpt, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14Degradation regenerates the degradation suite cell (the
// three-class crowd under the registration storm, cliff and graceful):
// its per-op cost prices the whole graceful-degradation path — the
// ladder's occupancy evaluation, per-class defer/preempt decisions,
// video rung switching, and GCRA-paced anchor registrations — on top
// of a faulted multi-tier run.
func BenchmarkE14Degradation(b *testing.B) {
	m := experiments.SuiteDegradationMatrix()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E14Degradation(benchOpt, m); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAll runs the full E1–E8 suite, one experiment after another as
// cmd/mmscale -suite does, with the given worker count; the sequential/parallel
// pair quantifies the worker-pool speedup on the whole regeneration.
func benchAll(b *testing.B, parallel int) {
	b.Helper()
	b.ReportAllocs()
	opt := experiments.Options{Seed: 11, TimeScale: 0.02, Parallel: parallel}
	suite := []func(experiments.Options) (*experiments.Table, error){
		experiments.E1MobileIPProcedures, experiments.E2CellularIPHandoff,
		experiments.E3LocationManagement, experiments.E4InterDomain,
		experiments.E5IntraDomain, experiments.E6SchemeComparison,
		experiments.E7ResourceSwitching, experiments.E8PagingAndRSMCLoad,
	}
	for i := 0; i < b.N; i++ {
		for _, run := range suite {
			if _, err := run(opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAllSequential(b *testing.B) { benchAll(b, 1) }

func BenchmarkAllParallel(b *testing.B) { benchAll(b, runtime.GOMAXPROCS(0)) }

// BenchmarkRunnerReplicated measures the worker pool itself: one config
// replicated across every core.
func BenchmarkRunnerReplicated(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Duration = 5 * time.Second
	cfg.NumMNs = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := runner.Run([]runner.Job{{Config: cfg}},
			runner.Options{BaseSeed: int64(i + 1), Reps: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioPerScheme measures raw simulation throughput of one
// 30-virtual-second scenario per scheme.
func BenchmarkScenarioPerScheme(b *testing.B) {
	for _, scheme := range core.Schemes() {
		scheme := scheme
		b.Run(string(scheme), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Scheme = scheme
			cfg.Duration = 30 * time.Second
			cfg.NumMNs = 4
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				if _, err := core.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- simulator hot paths -------------------------------------------------

func BenchmarkSchedulerEventChurn(b *testing.B) {
	s := simtime.NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%64 == 0 {
			for s.Step() {
			}
		}
	}
	for s.Step() {
	}
}

func BenchmarkEncapsulateDecapsulate(b *testing.B) {
	inner := packet.New(addr.MustParse("10.0.0.1"), addr.MustParse("10.1.0.1"),
		packet.ClassConversational, 1, 1, make([]byte, 160))
	src, dst := addr.MustParse("172.16.0.1"), addr.MustParse("10.4.0.2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tun, err := packet.Encapsulate(src, dst, inner)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tun.Decapsulate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocationTableUpdateLookup(b *testing.B) {
	sched := simtime.NewScheduler()
	tab := multitier.NewTable(3*time.Second, sched)
	mns := make([]addr.IP, 256)
	for i := range mns {
		mns[i] = addr.MustParse("172.16.1.0") + addr.IP(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mn := mns[i%len(mns)]
		tab.Update(mn, topology.CellID(i%16), uint32(i))
		tab.Lookup(mn)
	}
}

func BenchmarkHistogramObserveQuantile(b *testing.B) {
	var h metrics.Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%100_000) * time.Microsecond)
		if i%1024 == 0 {
			h.Quantile(0.95)
		}
	}
}

// BenchmarkTopologyMeasureInto is the actual per-tick measurement path:
// grid-restricted, into a reused scratch buffer — 0 allocs/op.
func BenchmarkTopologyMeasureInto(b *testing.B) {
	top, err := topology.Build(topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pos := top.Cells[2].Pos
	var scratch []radio.Signal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = top.MeasureInto(scratch, pos, nil, topology.TierPico)
	}
}

// BenchmarkPacketPoolCycle measures the free-list New/Release round trip
// that replaces a heap allocation per packet — 0 allocs/op.
func BenchmarkPacketPoolCycle(b *testing.B) {
	src, dst := addr.MustParse("10.0.0.1"), addr.MustParse("10.1.0.1")
	payload := packet.ZeroPayload(160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := packet.New(src, dst, packet.ClassConversational, 1, uint32(i), payload)
		packet.Release(p)
	}
}
