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

// TestMeasurePrimeJoinedByRun: no prime goroutine outlives a run. The
// tick that starts a cycle's prime is always followed, within the
// deadline, by the tick that collects it.
func TestMeasurePrimeJoinedByRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2 * time.Second
	cfg.NumMNs = 12
	cfg.MeasureWorkers = 3
	base := runtime.NumGoroutine()
	runOnce(t, cfg)
	waitGoroutines(t, base)
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
