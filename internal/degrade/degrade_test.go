package degrade

import (
	"testing"
	"time"

	"repro/internal/packet"
)

func TestPriorityOrdering(t *testing.T) {
	order := []packet.Class{
		packet.ClassBackground,
		packet.ClassInteractive,
		packet.ClassStreaming,
		packet.ClassConversational,
		packet.ClassControl,
	}
	for i := 1; i < len(order); i++ {
		if Priority(order[i-1]) >= Priority(order[i]) {
			t.Fatalf("Priority(%v)=%d not below Priority(%v)=%d",
				order[i-1], Priority(order[i-1]), order[i], Priority(order[i]))
		}
	}
}

func TestLadderConfigValidate(t *testing.T) {
	if err := DefaultLadderConfig().Validate(); err != nil {
		t.Fatalf("default ladder config invalid: %v", err)
	}
	cases := map[string]func(*LadderConfig){
		"zero-elevated":     func(c *LadderConfig) { c.Elevated = 0 },
		"elevated-above-1":  func(c *LadderConfig) { c.Elevated = 1.1 },
		"critical-below":    func(c *LadderConfig) { c.Critical = c.Elevated - 0.1 },
		"critical-above-1":  func(c *LadderConfig) { c.Critical = 1.01 },
		"neg-hysteresis":    func(c *LadderConfig) { c.Hysteresis = -0.1 },
		"huge-hysteresis":   func(c *LadderConfig) { c.Hysteresis = c.Elevated },
		"nan-threshold":     func(c *LadderConfig) { c.Critical = nan() },
		"no-scales":         func(c *LadderConfig) { c.VideoScales = nil },
		"first-not-full":    func(c *LadderConfig) { c.VideoScales = []float64{0.9, 0.5} },
		"non-descending":    func(c *LadderConfig) { c.VideoScales = []float64{1, 0.5, 0.5} },
		"non-positive-rung": func(c *LadderConfig) { c.VideoScales = []float64{1, 0} },
		"nan-rung":          func(c *LadderConfig) { c.VideoScales = []float64{1, nan()} },
	}
	for name, mutate := range cases {
		cfg := DefaultLadderConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s config accepted", name)
		}
		if _, err := NewLadder(cfg); err == nil {
			t.Errorf("%s config accepted by NewLadder", name)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func mustLadder(t *testing.T) *Ladder {
	t.Helper()
	l, err := NewLadder(DefaultLadderConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLadderStepsOneRungPerEval(t *testing.T) {
	l := mustLadder(t)
	if l.Level() != 0 || l.VideoScale() != 1 {
		t.Fatalf("new ladder at level %d scale %v", l.Level(), l.VideoScale())
	}
	// Critical occupancy deepens one rung per tick, saturating at max.
	for i, want := range []int{1, 2, 2} {
		if lvl, _ := l.Eval(0.95); lvl != want {
			t.Fatalf("eval %d: level %d, want %d", i, lvl, want)
		}
	}
	if l.VideoScale() != 0.35 {
		t.Fatalf("deepest scale %v, want 0.35", l.VideoScale())
	}
	// Elevated-but-not-critical holds the rung.
	if lvl, changed := l.Eval(0.75); lvl != 2 || changed {
		t.Fatalf("elevated eval moved to %d (changed=%v)", lvl, changed)
	}
	// Inside the hysteresis band nothing relaxes.
	if lvl, changed := l.Eval(0.65); lvl != 2 || changed {
		t.Fatalf("hysteresis-band eval moved to %d (changed=%v)", lvl, changed)
	}
	// Below Elevated-Hysteresis it relaxes one rung per tick.
	for i, want := range []int{1, 0, 0} {
		if lvl, _ := l.Eval(0.30); lvl != want {
			t.Fatalf("relax eval %d: level %d, want %d", i, lvl, want)
		}
	}
}

func TestLadderElevatedEntersLevelOne(t *testing.T) {
	l := mustLadder(t)
	if lvl, changed := l.Eval(0.75); lvl != 1 || !changed {
		t.Fatalf("elevated from idle: level %d changed %v", lvl, changed)
	}
	if lvl, changed := l.Eval(0.75); lvl != 1 || changed {
		t.Fatalf("elevated hold: level %d changed %v", lvl, changed)
	}
}

func TestLadderDeferNew(t *testing.T) {
	l := mustLadder(t)
	// Level 0: nothing defers.
	if l.DeferNew(packet.ClassBackground, false) {
		t.Fatal("level 0 deferred background")
	}
	l.Eval(0.75) // level 1
	for _, tc := range []struct {
		class   packet.Class
		handoff bool
		want    bool
	}{
		{packet.ClassBackground, false, true},
		{packet.ClassInteractive, false, true},
		{packet.ClassStreaming, false, false},
		{packet.ClassConversational, false, false},
		{packet.ClassControl, false, false},
		{packet.ClassBackground, true, false}, // handoffs never defer
	} {
		if got := l.DeferNew(tc.class, tc.handoff); got != tc.want {
			t.Errorf("level 1 DeferNew(%v, handoff=%v) = %v, want %v", tc.class, tc.handoff, got, tc.want)
		}
	}
	l.Eval(0.95) // level 2
	if !l.DeferNew(packet.ClassStreaming, false) {
		t.Fatal("level 2 admitted new streaming")
	}
	if l.DeferNew(packet.ClassConversational, false) {
		t.Fatal("level 2 deferred conversational voice")
	}
	if l.DeferNew(packet.ClassStreaming, true) {
		t.Fatal("level 2 deferred a streaming handoff")
	}
}

func TestLadderCanPreempt(t *testing.T) {
	l := mustLadder(t)
	if l.CanPreempt(packet.ClassConversational, false, packet.ClassBackground) {
		t.Fatal("level 0 allowed preemption")
	}
	l.Eval(0.75) // level 1
	for _, tc := range []struct {
		class   packet.Class
		handoff bool
		victim  packet.Class
		want    bool
	}{
		{packet.ClassConversational, false, packet.ClassBackground, true},
		{packet.ClassConversational, false, packet.ClassStreaming, true},
		{packet.ClassConversational, false, packet.ClassConversational, false},
		{packet.ClassStreaming, true, packet.ClassBackground, true},
		{packet.ClassStreaming, true, packet.ClassStreaming, false},
		{packet.ClassStreaming, false, packet.ClassBackground, false}, // new video never preempts
		{packet.ClassBackground, false, packet.ClassBackground, false},
	} {
		if got := l.CanPreempt(tc.class, tc.handoff, tc.victim); got != tc.want {
			t.Errorf("CanPreempt(%v, handoff=%v, victim=%v) = %v, want %v",
				tc.class, tc.handoff, tc.victim, got, tc.want)
		}
	}
}

func TestBreakerConfigValidate(t *testing.T) {
	if err := DefaultBreakerConfig().Validate(); err != nil {
		t.Fatalf("default breaker config invalid: %v", err)
	}
	cases := map[string]func(*BreakerConfig){
		"zero-rate":    func(c *BreakerConfig) { c.Rate = 0 },
		"neg-rate":     func(c *BreakerConfig) { c.Rate = -1 },
		"nan-rate":     func(c *BreakerConfig) { c.Rate = nan() },
		"inf-rate":     func(c *BreakerConfig) { c.Rate = 1 / nanZero() },
		"zero-burst":   func(c *BreakerConfig) { c.Burst = 0 },
		"zero-backlog": func(c *BreakerConfig) { c.OpenBacklog = 0 },
	}
	for name, mutate := range cases {
		cfg := DefaultBreakerConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s config accepted", name)
		}
		if _, err := NewBreaker(cfg); err == nil {
			t.Errorf("%s config accepted by NewBreaker", name)
		}
	}
}

func nanZero() float64 {
	var zero float64
	return zero
}

func TestBreakerBurstPassesUnpaced(t *testing.T) {
	b, err := NewBreaker(BreakerConfig{Rate: 100, Burst: 4, OpenBacklog: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if d := b.Admit(0); d != 0 {
			t.Fatalf("burst send %d paced by %v", i, d)
		}
	}
	if d := b.Admit(0); d <= 0 {
		t.Fatalf("post-burst send not paced (delay %v)", d)
	}
	if b.paced != 1 || b.Queued() != 1 {
		t.Fatalf("paced %d queued %d, want 1/1", b.paced, b.Queued())
	}
	if b.state != BreakerClosed {
		t.Fatalf("state %v below the open backlog", b.state)
	}
}

func TestBreakerPacingIsMonotoneAndRateLimited(t *testing.T) {
	b, err := NewBreaker(BreakerConfig{Rate: 100, Burst: 1, OpenBacklog: 1000})
	if err != nil {
		t.Fatal(err)
	}
	gap := 10 * time.Millisecond
	if d := b.Admit(0); d != 0 {
		t.Fatalf("first send paced by %v", d)
	}
	// A storm of simultaneous sends drains one per gap.
	for i := 0; i < 5; i++ {
		want := time.Duration(i+1) * gap
		if d := b.Admit(0); d != want {
			t.Fatalf("storm send %d delayed %v, want %v", i, d, want)
		}
	}
	// Once virtual time passes the backlog, sends conform again.
	b2, _ := NewBreaker(BreakerConfig{Rate: 100, Burst: 1, OpenBacklog: 1000})
	b2.Admit(0)
	if d := b2.Admit(time.Second); d != 0 {
		t.Fatalf("well-spaced send paced by %v", d)
	}
}

func TestBreakerOpenDrainHalfOpenClose(t *testing.T) {
	b, err := NewBreaker(BreakerConfig{Rate: 100, Burst: 1, OpenBacklog: 3})
	if err != nil {
		t.Fatal(err)
	}
	type change struct {
		at time.Duration
		s  BreakerState
	}
	var log []change
	b.OnState = func(now time.Duration, s BreakerState) { log = append(log, change{now, s}) }

	b.Admit(0) // conforming
	var delays []time.Duration
	for i := 0; i < 3; i++ {
		delays = append(delays, b.Admit(0))
	}
	if b.state != BreakerOpen {
		t.Fatalf("state %v after %d queued, want open", b.state, b.Queued())
	}
	// Deferred sends transmit on schedule; the drain half-opens the
	// breaker.
	for i, d := range delays {
		b.Sent(d)
		wantQ := len(delays) - i - 1
		if b.Queued() != wantQ {
			t.Fatalf("queued %d after send %d, want %d", b.Queued(), i, wantQ)
		}
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state %v after drain, want half-open", b.state)
	}
	// The next conforming send is the recovery probe: it closes the
	// breaker.
	if d := b.Admit(time.Second); d != 0 {
		t.Fatalf("recovery probe paced by %v", d)
	}
	if b.state != BreakerClosed {
		t.Fatalf("state %v after probe, want closed", b.state)
	}
	if b.opens != 1 || b.halfOpens != 1 || b.closes != 1 {
		t.Fatalf("transition counts opens=%d halfOpens=%d closes=%d, want 1/1/1",
			b.opens, b.halfOpens, b.closes)
	}
	want := []change{
		{0, BreakerOpen},
		{delays[2], BreakerHalfOpen},
		{time.Second, BreakerClosed},
	}
	if len(log) != len(want) {
		t.Fatalf("state log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("state log[%d] = %+v, want %+v", i, log[i], want[i])
		}
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "state(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestBreakerSentOnEmptyQueueIsSafe(t *testing.T) {
	b, err := NewBreaker(DefaultBreakerConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.Sent(0)
	if b.Queued() != 0 || b.state != BreakerClosed {
		t.Fatalf("spurious Sent perturbed the breaker: queued %d state %v", b.Queued(), b.state)
	}
}
