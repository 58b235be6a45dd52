package core

import (
	"errors"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/topology"
)

func shortCfg(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Duration = 10 * time.Second
	cfg.NumMNs = 4
	return cfg
}

func TestRunAllSchemesDeliverTraffic(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			res, err := Run(shortCfg(scheme))
			if err != nil {
				t.Fatal(err)
			}
			sum := res.Summary
			if sum.Sent == 0 {
				t.Fatal("no traffic generated")
			}
			if sum.Delivered == 0 {
				t.Fatalf("nothing delivered: %s", sum)
			}
			rate := float64(sum.Delivered) / float64(sum.Sent)
			if rate < 0.5 {
				t.Fatalf("delivery rate %.2f too low: %s", rate, sum)
			}
			if sum.MeanLatency <= 0 {
				t.Fatalf("no latency measured: %s", sum)
			}
			if sum.SignalingMsgs == 0 {
				t.Fatalf("no signalling counted: %s", sum)
			}
		})
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := shortCfg(SchemeMultiTier)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registry.Render() != b.Registry.Render() {
		t.Fatal("same seed produced different results")
	}
	// Waypoint mobility is seed-driven, so different seeds must diverge
	// once nodes roam far enough to make different handoff decisions.
	cfg.Mobility = MobilityWaypoint
	cfg.SpeedMPS = 30
	cfg.Duration = 2 * time.Minute
	cfg.Seed = 2
	c1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 3
	c2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Registry.Render() == c2.Registry.Render() {
		t.Fatal("different seeds produced identical waypoint runs")
	}
}

func TestRunConservation(t *testing.T) {
	storm, err := faults.ProfileByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]Config{}
	for _, scheme := range Schemes() {
		cells[string(scheme)] = shortCfg(scheme)
	}
	stormCfg := shortCfg(SchemeMultiTier)
	stormCfg.NumMNs = 40
	stormCfg.Faults = storm.Plan
	cells["storm/"+string(SchemeMultiTier)] = stormCfg
	// A dimensioned default-fleet cell on its own packet arena, and a
	// Mobile IP population past 1024 MNs, whose registrations grow the
	// Home Agent's binding array beyond its first doublings.
	cells["fleet-dimensioned/"+string(SchemeMultiTier)] = dimensionedConfig(t, 200)
	bigMIP := shortCfg(SchemeMobileIP)
	bigMIP.NumMNs = 1100
	bigMIP.Duration = 3 * time.Second
	cells["1100/"+string(SchemeMobileIP)] = bigMIP
	for _, name := range slices.Sorted(maps.Keys(cells)) {
		cfg := cells[name]
		t.Run(name, func(t *testing.T) {
			s, err := newScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := s.run()
			sum := res.Summary
			// Every sent packet is delivered, dropped or still in flight
			// (bicast clones can add drops beyond sent under semisoft, so
			// the check bounds delivered, not drops).
			if sum.Delivered > sum.Sent {
				t.Fatalf("delivered %d > sent %d", sum.Delivered, sum.Sent)
			}
			if sum.Delivered+sum.Dropped == 0 {
				t.Fatal("no packet fates recorded")
			}
			// Hop conservation: every link or air send the network
			// accepted was delivered to a handler, dropped before
			// delivery (loss, queue-full, down node, no handler), or is
			// still in flight at the deadline. Protocol-level discards
			// after delivery are not send fates.
			n := s.net
			transit := n.Dropped - n.Discarded
			if n.Sent != n.Delivered+transit+uint64(n.InFlight()) {
				t.Fatalf("hops: sent %d != delivered %d + dropped in transit %d + in flight %d",
					n.Sent, n.Delivered, transit, n.InFlight())
			}
			if n.Sent == 0 || n.InFlight() == 0 {
				t.Fatalf("hops: sent %d, in flight %d at the deadline: the check saw no traffic", n.Sent, n.InFlight())
			}
		})
	}
}

func TestSchemeComparisonShape(t *testing.T) {
	// The paper's core claim (E6): on loss, Mobile IP is worst, Cellular
	// IP semisoft and the multi-tier RSMC scheme are best. The workload
	// shuttles MNs between two macro-cell centres so that every scheme
	// must perform its macro-level handoff.
	loss := make(map[Scheme]float64)
	handoffs := make(map[Scheme]uint64)
	for _, scheme := range Schemes() {
		cfg := shortCfg(scheme)
		cfg.Mobility = MobilityShuttleDomains
		cfg.Duration = 20 * time.Minute // macro cells are km apart
		cfg.SpeedMPS = 20
		cfg.NumMNs = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loss[scheme] = res.Summary.LossRate
		handoffs[scheme] = res.Summary.Handoffs
	}
	for scheme, n := range handoffs {
		if n < 4 {
			t.Fatalf("%s: only %d handoffs — workload did not stress the scheme", scheme, n)
		}
	}
	if loss[SchemeMobileIP] <= loss[SchemeCellularIPSemisoft] {
		t.Fatalf("Mobile IP loss %.5f should exceed CIP semisoft %.5f",
			loss[SchemeMobileIP], loss[SchemeCellularIPSemisoft])
	}
	if loss[SchemeMobileIP] <= loss[SchemeMultiTier] {
		t.Fatalf("Mobile IP loss %.5f should exceed multi-tier %.5f",
			loss[SchemeMobileIP], loss[SchemeMultiTier])
	}
	if loss[SchemeCellularIPHard] < loss[SchemeCellularIPSemisoft] {
		t.Fatalf("CIP hard loss %.5f should be >= semisoft %.5f",
			loss[SchemeCellularIPHard], loss[SchemeCellularIPSemisoft])
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 0
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero duration: %v", err)
	}
	cfg = DefaultConfig()
	cfg.NumMNs = 0
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero MNs: %v", err)
	}
	cfg = DefaultConfig()
	cfg.Scheme = "bogus"
	if _, err := Run(cfg); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("bogus scheme: %v", err)
	}
	for _, speed := range []float64{-1, math.Inf(-1), math.NaN(), math.Inf(1)} {
		cfg = shortCfg(SchemeMultiTier)
		cfg.Mobility = MobilityManhattan
		cfg.SpeedMPS = speed
		if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("speed %v: %v", speed, err)
		}
	}
	cfg = shortCfg(SchemeMultiTier)
	cfg.SpeedMPS = 0
	if _, err := Run(cfg); err != nil {
		t.Fatalf("speed 0: %v", err)
	}
	cfg = shortCfg(SchemeMultiTier)
	cfg.MeasureInterval = -time.Millisecond
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative measure interval: %v", err)
	}
	cfg = shortCfg(SchemeMultiTier)
	cfg.MeasureWorkers = -1
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative measure workers: %v", err)
	}
	// A negative override is rejected, not silently replaced by the
	// default.
	cfg = shortCfg(SchemeMultiTier)
	cfg.TableTTL = -time.Second
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative table TTL: %v", err)
	}
	cfg = shortCfg(SchemeCellularIPSemisoft)
	cfg.SemisoftDelay = -time.Millisecond
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative semisoft delay: %v", err)
	}
	// 0 keeps the documented defaults: a 100 ms cadence, inline measurement.
	cfg = shortCfg(SchemeMultiTier)
	cfg.MeasureInterval, cfg.MeasureWorkers = 0, 0
	if _, err := Run(cfg); err != nil {
		t.Fatalf("zero measure interval and workers: %v", err)
	}
}

func TestMobilityKindsRun(t *testing.T) {
	for _, kind := range MobilityKinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := shortCfg(SchemeMultiTier)
			cfg.Mobility = kind
			cfg.Duration = 5 * time.Second
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Delivered == 0 {
				t.Fatalf("%s: nothing delivered", kind)
			}
		})
	}
}

func TestStaticMobilityNoHandoffsAfterAttach(t *testing.T) {
	cfg := shortCfg(SchemeMultiTier)
	cfg.Mobility = MobilityStatic
	cfg.Duration = 15 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Only the initial attaches count.
	if got := res.Summary.Handoffs; got != uint64(cfg.NumMNs) {
		t.Fatalf("handoffs = %d, want %d initial attaches", got, cfg.NumMNs)
	}
}

func TestMultiRootTopologyMultiTier(t *testing.T) {
	cfg := shortCfg(SchemeMultiTier)
	cfg.Topology = topology.DefaultConfig() // 2 roots
	cfg.Duration = 10 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Delivered == 0 {
		t.Fatal("nothing delivered on two-root topology")
	}
}

func TestAuthEnabledStillDelivers(t *testing.T) {
	cfg := shortCfg(SchemeMultiTier)
	cfg.AuthEnabled = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Delivered == 0 {
		t.Fatal("auth-enabled run delivered nothing")
	}
	// Auth checks actually happened.
	var checks uint64
	for _, dom := range []int{0, 1} {
		checks += res.Registry.Counter(authCounterName(dom)).Value()
	}
	if checks == 0 {
		t.Fatal("no auth checks recorded")
	}
}

func authCounterName(domain int) string {
	return "rsmc." + itoa(domain) + ".auth_checks"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestVideoAndDataTraffic(t *testing.T) {
	cfg := shortCfg(SchemeMultiTier)
	cfg.Traffic = TrafficConfig{Voice: true, Video: true, DataMeanInterval: 50 * time.Millisecond}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// All three class histograms exist.
	names := res.Registry.Names()
	want := []string{"e2e.latency.conversational", "e2e.latency.streaming", "e2e.latency.interactive"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing metric %s", w)
		}
	}
}

func TestZeroSendScenarioSummary(t *testing.T) {
	// A population with no traffic generators sends nothing; the summary
	// must not divide by zero or take percentiles of empty samples.
	cfg := shortCfg(SchemeMultiTier)
	cfg.Traffic = TrafficConfig{}
	cfg.Duration = 5 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if sum.Sent != 0 {
		t.Fatalf("no-traffic run sent %d packets", sum.Sent)
	}
	if sum.LossRate != 0 || sum.MeanLatency != 0 || sum.P95Latency != 0 {
		t.Fatalf("zero-send summary has derived values: %s", sum)
	}
	if out := sum.String(); strings.Contains(out, "NaN") {
		t.Fatalf("summary renders NaN: %s", out)
	}
}

func TestSummaryStringNaNFree(t *testing.T) {
	s := Summary{Sent: 0, LossRate: math.NaN()}
	if out := s.String(); strings.Contains(out, "NaN") {
		t.Fatalf("NaN leaked into rendering: %s", out)
	}
	s = Summary{LossRate: math.Inf(1)}
	if out := s.String(); strings.Contains(out, "Inf") || strings.Contains(out, "inf") {
		t.Fatalf("Inf leaked into rendering: %s", out)
	}
}

func TestTrafficDemandBPS(t *testing.T) {
	if got := (TrafficConfig{}).DemandBPS(); got != 16000 {
		t.Fatalf("empty demand = %v", got)
	}
	tc := TrafficConfig{Voice: true, Video: true, DataMeanInterval: time.Second}
	if got := tc.DemandBPS(); got != 64000+300000+32000 {
		t.Fatalf("full demand = %v", got)
	}
}
