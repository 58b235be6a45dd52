package core

import (
	"runtime"
	"testing"
	"time"
)

// runOnce executes one scenario and returns its result.
func runOnce(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Scheme, err)
	}
	return res
}

// seqBaselines caches each configuration's sequential run across the
// passes of one test binary (go test -cpu 1,2,4 runs a test once per P
// count): inline measurement starts no goroutine, so its output does not
// depend on GOMAXPROCS.
var seqBaselines = map[Config]baseline{}

type baseline struct {
	summary  Summary
	registry string
}

// TestParallelMeasurementByteIdentical pins the tentpole invariant at the
// engine level: for every scheme and mobility kind, with and without
// shadowing, a run with measurement workers produces exactly the
// sequential run's summary and metric registry. Every MN owns its
// shadowing stream, so every scheme primes in parallel. The trajectory
// models answer queries from a per-model cursor, which workers advance a
// cycle ahead of the decision ticks. The durations end between two
// cycles (12 s), in the middle of one, after the last cycle's prime has
// measured MNs that never tick (12.05 s), and before a second cycle
// opens, so no background prime ever starts (80 ms, under the 100 ms
// interval).
func TestParallelMeasurementByteIdentical(t *testing.T) {
	for _, dur := range []time.Duration{12 * time.Second, 12050 * time.Millisecond, 80 * time.Millisecond} {
		for _, kind := range MobilityKinds() {
			for _, scheme := range Schemes() {
				for _, shadowing := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.Scheme = scheme
					cfg.Mobility = kind
					cfg.Duration = dur
					cfg.NumMNs = 12
					cfg.Shadowing = shadowing
					seq, ok := seqBaselines[cfg]
					if !ok {
						res := runOnce(t, cfg)
						seq = baseline{res.Summary, res.Registry.Render()}
						seqBaselines[cfg] = seq
					}
					for _, workers := range []int{2, 7} {
						cfg.MeasureWorkers = workers
						par := runOnce(t, cfg)
						if par.Summary != seq.summary {
							t.Fatalf("%v %s %s shadowing=%v: %d measure workers diverged\nseq: %v\npar: %v",
								dur, kind, scheme, shadowing, workers, seq.summary, par.Summary)
						}
						if b := par.Registry.Render(); b != seq.registry {
							t.Fatalf("%v %s %s shadowing=%v: %d measure workers changed the registry\nseq:\n%s\npar:\n%s",
								dur, kind, scheme, shadowing, workers, seq.registry, b)
						}
					}
				}
			}
		}
	}
}

// TestMeasureWorkersExceedingPopulation degrades gracefully: more workers
// than MNs still runs and still matches sequential output.
func TestMeasureWorkersExceedingPopulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 8 * time.Second
	cfg.NumMNs = 3
	seq := runOnce(t, cfg).Summary
	cfg.MeasureWorkers = 16
	if par := runOnce(t, cfg).Summary; par != seq {
		t.Fatalf("16 workers over 3 MNs diverged\nseq: %v\npar: %v", seq, par)
	}
}

// TestMeasurePrimeJoinedByRun: no measurement worker outlives a run: Run
// joins them at its deadline.
func TestMeasurePrimeJoinedByRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2 * time.Second
	cfg.NumMNs = 12
	cfg.MeasureWorkers = 3
	base := runtime.NumGoroutine()
	runOnce(t, cfg)
	waitGoroutines(t, base)
}

// TestMeasurePipelineMatchesInline drives the measurement pipeline over
// a population of several 64-MN chunks, the last one partial: a flat
// scheme and the multi-tier scheme, shadowing off and on, with 2, 3 and 5
// measure workers (one, two and four background workers beside the
// simulation goroutine) must each reproduce the inline run's summary and
// registry byte for byte. The durations end inside the last cycle, after
// MN 0 has opened it but before the later MNs' ticks read their slots
// (4.05 s), and before a second cycle opens, so the workers measure
// cycles no tick reads (80 ms). After every run the goroutine count is
// back where it started.
func TestMeasurePipelineMatchesInline(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, dur := range []time.Duration{4050 * time.Millisecond, 80 * time.Millisecond} {
		for _, scheme := range []Scheme{SchemeCellularIPHard, SchemeMultiTier} {
			for _, shadowing := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.Mobility = MobilityManhattan
				cfg.SpeedMPS = 20
				cfg.Duration = dur
				cfg.NumMNs = 150
				cfg.Shadowing = shadowing
				seq := runOnce(t, cfg)
				want, wantReg := seq.Summary, seq.Registry.Render()
				for _, workers := range []int{2, 3, 5} {
					cfg.MeasureWorkers = workers
					par := runOnce(t, cfg)
					if par.Summary != want {
						t.Fatalf("%v %s shadowing=%v: %d measure workers diverged\nseq: %v\npar: %v",
							dur, scheme, shadowing, workers, want, par.Summary)
					}
					if got := par.Registry.Render(); got != wantReg {
						t.Fatalf("%v %s shadowing=%v: %d measure workers changed the registry\nseq:\n%s\npar:\n%s",
							dur, scheme, shadowing, workers, wantReg, got)
					}
					waitGoroutines(t, base)
				}
			}
		}
	}
}

// TestMeasurePipelineFewerMNsThanWorkers: three MNs make one chunk, so
// every cycle is a single item; five measure workers still match the
// inline run for both scheme kinds, and none outlives the run.
func TestMeasurePipelineFewerMNsThanWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, scheme := range []Scheme{SchemeMobileIP, SchemeMultiTier} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.Mobility = MobilityWaypoint
		cfg.Duration = 5 * time.Second
		cfg.NumMNs = 3
		cfg.Shadowing = true
		seq := runOnce(t, cfg)
		cfg.MeasureWorkers = 5
		par := runOnce(t, cfg)
		if par.Summary != seq.Summary || par.Registry.Render() != seq.Registry.Render() {
			t.Fatalf("%s: 5 workers over 3 MNs diverged\nseq: %v\npar: %v", scheme, seq.Summary, par.Summary)
		}
		waitGoroutines(t, base)
	}
}

// waitGoroutines polls until the goroutine count is back to base: a
// worker that has signalled its WaitGroup may still be exiting.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after the run, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
