package core

import (
	"testing"
	"time"
)

// runSummary executes one scenario and returns its summary.
func runSummary(t *testing.T, cfg Config) Summary {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Scheme, err)
	}
	return res.Summary
}

// TestParallelMeasurementByteIdentical pins the tentpole invariant at the
// engine level: for every scheme and mobility kind, with and without
// shadowing, a run with measurement workers produces exactly the
// sequential run's summary. The multi-tier scheme keeps per-MN shadowing
// streams (parallel-safe); the flat schemes share one stream under
// shadowing and must transparently fall back to inline measurement —
// same bytes either way. The trajectory models answer queries from a
// per-model cursor, which workers advance ahead of the decision ticks.
func TestParallelMeasurementByteIdentical(t *testing.T) {
	for _, kind := range MobilityKinds() {
		for _, scheme := range Schemes() {
			for _, shadowing := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.Mobility = kind
				cfg.Duration = 12 * time.Second
				cfg.NumMNs = 12
				cfg.Shadowing = shadowing
				seq := runSummary(t, cfg)
				for _, workers := range []int{2, 7} {
					cfg.MeasureWorkers = workers
					if par := runSummary(t, cfg); par != seq {
						t.Fatalf("%s %s shadowing=%v: %d measure workers diverged\nseq: %v\npar: %v",
							kind, scheme, shadowing, workers, seq, par)
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
	seq := runSummary(t, cfg)
	cfg.MeasureWorkers = 16
	if par := runSummary(t, cfg); par != seq {
		t.Fatalf("16 workers over 3 MNs diverged\nseq: %v\npar: %v", seq, par)
	}
}
