package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// tickFeed drives a monitor the way the engine does: observe one value
// on the watched series, then Eval at the same instant.
func tickFeed(tr *Trace, m *Monitor, name string, at time.Duration, v float64) {
	tr.SeriesByName(name).Observe(at, v)
	m.Eval(at)
}

func TestMonitorRaiseClearLifecycle(t *testing.T) {
	tr := New(Config{Capacity: 64})
	m := NewMonitor(tr)
	var raises, clears, actives []time.Duration
	err := m.AddRule(Rule{
		Name: "occ.hot", Series: "occ",
		Threshold: 0.8, Hysteresis: 0.2, MinDuration: 2 * time.Second,
		OnRaise:  func(at time.Duration, v float64) { raises = append(raises, at) },
		OnClear:  func(at time.Duration, v float64) { clears = append(clears, at) },
		OnActive: func(at time.Duration, v float64) { actives = append(actives, at) },
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := []struct {
		at time.Duration
		v  float64
	}{
		{1 * time.Second, 0.5},  // calm
		{2 * time.Second, 0.9},  // breach starts
		{3 * time.Second, 0.9},  // 1s in — under MinDuration
		{4 * time.Second, 0.9},  // 2s in — raises, OnActive fires too
		{5 * time.Second, 0.7},  // above clear boundary (0.6): still active
		{6 * time.Second, 0.61}, // still above: active
		{7 * time.Second, 0.6},  // at clear boundary: clears (no OnActive)
		{8 * time.Second, 0.9},  // new breach epoch starts
		{9 * time.Second, 0.9},
		{10 * time.Second, 0.9}, // 2s in — second raise
	}
	for _, f := range feed {
		tickFeed(tr, m, "occ", f.at, f.v)
	}
	if want := []time.Duration{4 * time.Second, 10 * time.Second}; !durationsEqual(raises, want) {
		t.Errorf("raises at %v, want %v", raises, want)
	}
	if want := []time.Duration{7 * time.Second}; !durationsEqual(clears, want) {
		t.Errorf("clears at %v, want %v", clears, want)
	}
	// OnActive: raising tick plus every in-band tick, never the clearing one.
	if want := []time.Duration{4 * time.Second, 5 * time.Second, 6 * time.Second, 10 * time.Second}; !durationsEqual(actives, want) {
		t.Errorf("actives at %v, want %v", actives, want)
	}
	if m.Raised() != 2 || m.Cleared() != 1 || !m.Active("occ.hot") {
		t.Errorf("raised=%d cleared=%d active=%v", m.Raised(), m.Cleared(), m.Active("occ.hot"))
	}
	// The alert stream landed in the trace with the rule's index and the
	// evaluated value in ppm.
	var events []Event
	for _, e := range tr.Events() {
		if e.Kind == KindAlertRaise || e.Kind == KindAlertClear {
			events = append(events, e)
		}
	}
	if len(events) != 3 {
		t.Fatalf("alert events = %d, want 3", len(events))
	}
	if e := events[0]; e.Kind != KindAlertRaise || e.At != 4*time.Second || e.Aux != 0 || e.Val != 900000 {
		t.Errorf("raise event = %+v", e)
	}
	if e := events[1]; e.Kind != KindAlertClear || e.At != 7*time.Second || e.Val != 600000 {
		t.Errorf("clear event = %+v", e)
	}
	if got := tr.RuleName(events[0].Aux); got != "occ.hot" {
		t.Errorf("RuleName = %q", got)
	}
}

// TestMonitorHysteresisNoFlap pins the reason hysteresis exists: a
// series oscillating tightly around the threshold must produce exactly
// one raise, not a raise/clear pair per tick.
func TestMonitorHysteresisNoFlap(t *testing.T) {
	tr := New(Config{Capacity: 256})
	m := NewMonitor(tr)
	if err := m.AddRule(Rule{Name: "flappy", Series: "s", Threshold: 0.5, Hysteresis: 0.2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v := 0.45
		if i%2 == 0 {
			v = 0.55 // crosses the threshold, never the clear bound (0.3)
		}
		tickFeed(tr, m, "s", time.Duration(i+1)*time.Second, v)
	}
	if m.Raised() != 1 || m.Cleared() != 0 {
		t.Fatalf("oscillation raised %d cleared %d, want 1/0", m.Raised(), m.Cleared())
	}
	// Without hysteresis the same series flaps on every oscillation.
	tr2 := New(Config{Capacity: 256})
	m2 := NewMonitor(tr2)
	if err := m2.AddRule(Rule{Name: "flappy", Series: "s", Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v := 0.45
		if i%2 == 0 {
			v = 0.55
		}
		tickFeed(tr2, m2, "s", time.Duration(i+1)*time.Second, v)
	}
	if m2.Raised() != 25 || m2.Cleared() != 25 {
		t.Fatalf("no-hysteresis control raised %d cleared %d, want 25/25", m2.Raised(), m2.Cleared())
	}
}

// TestMonitorBelowMode checks the inverted comparison: breach under the
// threshold, clear at threshold+hysteresis.
func TestMonitorBelowMode(t *testing.T) {
	tr := New(Config{Capacity: 64})
	m := NewMonitor(tr)
	// Threshold and hysteresis picked binary-exact so the clear bound
	// (0.5 + 0.25 = 0.75) compares without rounding slop.
	if err := m.AddRule(Rule{Name: "dip", Series: "frac", Below: true, Threshold: 0.5, Hysteresis: 0.25}); err != nil {
		t.Fatal(err)
	}
	tickFeed(tr, m, "frac", 1*time.Second, 1.0)
	tickFeed(tr, m, "frac", 2*time.Second, 0.25) // dip: raise
	tickFeed(tr, m, "frac", 3*time.Second, 0.625)
	if !m.Active("dip") {
		t.Fatal("0.625 < clear bound 0.75 must stay active")
	}
	tickFeed(tr, m, "frac", 4*time.Second, 0.75) // at clear bound
	if m.Active("dip") || m.Raised() != 1 || m.Cleared() != 1 {
		t.Fatalf("active=%v raised=%d cleared=%d", m.Active("dip"), m.Raised(), m.Cleared())
	}
}

// TestMonitorWindowAggs drives one rule per aggregation and checks the
// evaluated value picks the intended reduction.
func TestMonitorWindowAggs(t *testing.T) {
	tr := New(Config{Capacity: 64})
	m := NewMonitor(tr)
	w := 10 * time.Second
	// The series ramps 1, 2, 3 at 1s..3s.
	add := func(name string, agg Agg, threshold float64, below bool) {
		t.Helper()
		r := Rule{Name: name, Series: "r", Agg: agg, Window: w, Threshold: threshold, Below: below}
		if agg == AggEWMA {
			r.Alpha = 0.5
		}
		if err := m.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	add("mean>1.9", AggMean, 1.9, false)   // mean 2
	add("min<1.5", AggMin, 1.5, true)      // min 1
	add("max>2.9", AggMax, 2.9, false)     // max 3
	add("ewma>2.2", AggEWMA, 2.2, false)   // 2.25
	add("slope>0.9", AggSlope, 0.9, false) // 1/s
	add("slope>1.1", AggSlope, 1.1, false) // not breached
	for i := 1; i <= 3; i++ {
		tr.SeriesByName("r").Observe(time.Duration(i)*time.Second, float64(i))
	}
	m.Eval(3 * time.Second)
	for _, name := range []string{"mean>1.9", "min<1.5", "max>2.9", "ewma>2.2", "slope>0.9"} {
		if !m.Active(name) {
			t.Errorf("rule %s did not raise", name)
		}
	}
	if m.Active("slope>1.1") {
		t.Error("slope>1.1 raised on a 1/s ramp")
	}
}

// TestMonitorAbsentSeriesNeverFires pins the lazy-lookup contract: a
// rule over a series nothing ever samples neither fires nor registers
// the series.
func TestMonitorAbsentSeriesNeverFires(t *testing.T) {
	tr := New(Config{Capacity: 64})
	m := NewMonitor(tr)
	if err := m.AddRule(Rule{Name: "ghost", Series: "never.sampled", Threshold: 0}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		m.Eval(time.Duration(i) * time.Second)
	}
	if m.Raised() != 0 || len(tr.AllSeries()) != 0 {
		t.Fatalf("raised=%d series=%d, want 0/0", m.Raised(), len(tr.AllSeries()))
	}
}

func TestMonitorRejectsBadRules(t *testing.T) {
	m := NewMonitor(New(Config{}))
	if err := m.AddRule(Rule{Name: "ok", Series: "s", Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	bad := []Rule{
		{Series: "s"},                                   // no name
		{Name: "ok", Series: "s"},                       // duplicate
		{Name: "r", Series: ""},                         // no series
		{Name: "r", Series: "s", Threshold: math.NaN()}, // NaN threshold
		{Name: "r", Series: "s", Hysteresis: -1},
		{Name: "r", Series: "s", MinDuration: -time.Second},
		{Name: "r", Series: "s", Agg: AggMean}, // windowed agg without window
		{Name: "r", Series: "s", Agg: AggEWMA, Window: time.Second, Alpha: 0},
		{Name: "r", Series: "s", Agg: AggEWMA, Window: time.Second, Alpha: 1.5},
	}
	for i, r := range bad {
		if err := m.AddRule(r); err == nil {
			t.Errorf("bad rule %d accepted", i)
		}
	}
	var nilM *Monitor
	if err := nilM.AddRule(Rule{Name: "x", Series: "s"}); err == nil {
		t.Error("nil monitor accepted a rule")
	}
	if NewMonitor(nil) != nil {
		t.Error("NewMonitor(nil) must yield a nil monitor")
	}
}

// TestMonitorNilIsInert mirrors TestNilTraceIsInert: the nil monitor
// pattern lets the sampling closure call Eval unconditionally.
func TestMonitorNilIsInert(t *testing.T) {
	var m *Monitor
	m.Eval(time.Second)
	if m.Raised() != 0 || m.Cleared() != 0 || m.Active("x") {
		t.Fatal("nil monitor must observe nothing")
	}
}

// TestMonitorEvalNoAlloc pins the hot-path contract on both the nil
// monitor and an armed one with active rules over a long series.
func TestMonitorEvalNoAlloc(t *testing.T) {
	var nilM *Monitor
	if allocs := testing.AllocsPerRun(256, func() { nilM.Eval(time.Second) }); allocs != 0 {
		t.Fatalf("nil Eval allocated %v per op", allocs)
	}
	tr := New(Config{Capacity: 1 << 16})
	m := NewMonitor(tr)
	for _, r := range []Rule{
		{Name: "mean", Series: "s", Agg: AggMean, Window: 100 * time.Second, Threshold: 0.5, Hysteresis: 0.1},
		{Name: "ewma", Series: "s", Agg: AggEWMA, Window: 100 * time.Second, Alpha: 0.3, Threshold: 0.5},
		{Name: "last", Series: "s", Below: true, Threshold: 0.2},
	} {
		if err := m.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.SeriesByName("s")
	for i := 0; i < 1024; i++ {
		s.Observe(time.Duration(i)*time.Second, float64(i%2))
	}
	at := 1024 * time.Second
	if allocs := testing.AllocsPerRun(256, func() {
		at += time.Second
		m.Eval(at)
	}); allocs != 0 {
		t.Fatalf("armed Eval allocated %v per op", allocs)
	}
}

// TestMonitorRuleNamesExport pins the rule-name round-trip through the
// JSONL export: Aux indices pair with declared names on the far side.
func TestMonitorRuleNamesExport(t *testing.T) {
	tr := New(Config{Capacity: 64})
	m := NewMonitor(tr)
	for _, name := range []string{"alpha", "beta"} {
		if err := m.AddRule(Rule{Name: name, Series: "s", Threshold: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	tickFeed(tr, m, "s", time.Second, 0.9) // both raise
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rule":"alpha"`) {
		t.Fatalf("export misses rule record:\n%s", buf.String())
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if names := got.RuleNames(); len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("round-tripped rule names = %v", names)
	}
	if got.RuleName(1) != "beta" || got.RuleName(9) != "rule#9" {
		t.Fatalf("RuleName lookup = %q / %q", got.RuleName(1), got.RuleName(9))
	}
}

func durationsEqual(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
