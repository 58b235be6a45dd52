package mobileip

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// newMN adds a second mobile node with a custom config to the testbed
// (the built-in tb.mn keeps the default config and stays idle).
func (tb *testbed) newMN(cfg MNConfig) *MobileNode {
	node := tb.net.NewNode("mn-retry")
	return NewMobileNode(node, addr.MustParse("172.16.0.6"), addr.MustParse("172.16.0.1"), cfg, tb.stats)
}

// injectControl delivers a hand-built registration request straight to
// the Home Agent, as a forged/replayed message would arrive.
func (tb *testbed) injectControl(from *netsim.Node, req *RegistrationRequest) {
	pkt := packet.NewControl(req.Home, addr.MustParse("172.16.0.1"), packet.ProtoMobileIP, req.Marshal())
	_ = tb.net.DeliverDirect(from, tb.ha.Node(), pkt, 0, 0)
}

// retryCfg is the recovery configuration fault runs arm: capped
// exponential backoff over a 500ms base.
func retryCfg() MNConfig {
	cfg := DefaultMNConfig()
	cfg.RetryInterval = 500 * time.Millisecond
	cfg.MaxRetries = 4
	cfg.RetryBackoff = 2
	cfg.RetryCap = 3 * time.Second
	return cfg
}

// TestRetryBackoffScheduleExact pins the full retransmission schedule:
// base 500ms doubling per attempt, capped at 3s, so the five
// transmissions of one round land at exactly 0, 0.5, 1.5, 3.5 and 6.5s.
func TestRetryBackoffScheduleExact(t *testing.T) {
	tb := newTestbed(t)
	cfg := retryCfg()
	cfg.AirLoss = 1 // every transmission lost: the timers drive everything
	mn := tb.newMN(cfg)
	var times []time.Duration
	mn.OnLocationSignal = func() { times = append(times, tb.sched.Now()) }
	failed := false
	mn.OnRegistrationFailed = func() { failed = true }

	mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(12 * time.Second)
	want := []time.Duration{0, 500 * time.Millisecond, 1500 * time.Millisecond,
		3500 * time.Millisecond, 6500 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("sent %d registrations %v, want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("transmission %d at %v, want %v (schedule %v)", i, times[i], want[i], times)
		}
	}
	if !failed {
		t.Fatal("OnRegistrationFailed never fired")
	}
	if got := tb.stats.RetryExhausted.Value(); got != 1 {
		t.Fatalf("retry_exhausted = %d, want 1", got)
	}
}

// TestRetryJitterSeededAndBounded pins that jitter draws come from the
// installed seeded stream: every backed-off gap stays within ±25% of its
// nominal value, at least one gap actually moved, and the same seed
// reproduces the same schedule exactly.
func TestRetryJitterSeededAndBounded(t *testing.T) {
	run := func(seed int64) []time.Duration {
		tb := newTestbed(t)
		cfg := retryCfg()
		cfg.RetryJitter = 0.25
		cfg.AirLoss = 1
		mn := tb.newMN(cfg)
		mn.SetRand(simtime.NewRand(seed))
		var times []time.Duration
		mn.OnLocationSignal = func() { times = append(times, tb.sched.Now()) }
		mn.MoveTo(tb.fa1)
		tb.sched.RunUntil(15 * time.Second)
		return times
	}

	a := run(42)
	if len(a) != 5 {
		t.Fatalf("sent %d registrations, want 5", len(a))
	}
	nominal := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second}
	moved := false
	for i, n := range nominal {
		gap := a[i+1] - a[i]
		lo := time.Duration(float64(n) * 0.75)
		hi := time.Duration(float64(n) * 1.25)
		if gap < lo || gap > hi {
			t.Fatalf("gap %d = %v outside [%v, %v]", i, gap, lo, hi)
		}
		if gap != n {
			moved = true
		}
	}
	if !moved {
		t.Fatal("jitter 0.25 left every gap exactly nominal")
	}
	b := run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged: %v vs %v", a, b)
		}
	}
}

// TestReattemptRecoversAfterOutage pins the outage-recovery loop: the MN
// exhausts its retries against a downed agent, keeps reattempting on the
// slow cadence, and re-registers once the agent comes back.
func TestReattemptRecoversAfterOutage(t *testing.T) {
	tb := newTestbed(t)
	cfg := retryCfg()
	cfg.RetryInterval = 200 * time.Millisecond
	cfg.MaxRetries = 2
	cfg.RetryCap = time.Second
	cfg.ReattemptInterval = time.Second
	mn := tb.newMN(cfg)

	tb.fa1.Node().SetDown(true)
	mn.MoveTo(tb.fa1)
	tb.sched.At(5*time.Second, func() { tb.fa1.Node().SetDown(false) })
	tb.sched.RunUntil(10 * time.Second)
	if !mn.Registered() {
		t.Fatal("MN never recovered after the agent came back")
	}
	if got := tb.stats.RetryExhausted.Value(); got == 0 {
		t.Fatal("outage did not exhaust a retry round")
	}
	if b, ok := tb.ha.Binding(mn.Home()); !ok || b.CareOf != tb.fa1.CareOf() {
		t.Fatalf("HA binding = %+v, %v after recovery", b, ok)
	}
}

// TestLifetimeExpiryCounted pins the expiry probe: a grant that lapses
// while the agent is down (renewals all lost) increments the expired
// counter exactly once per lapsed grant generation.
func TestLifetimeExpiryCounted(t *testing.T) {
	tb := newTestbed(t)
	cfg := retryCfg()
	cfg.Lifetime = time.Second
	cfg.MaxRetries = 2
	cfg.TrackExpiry = true
	mn := tb.newMN(cfg)

	mn.MoveTo(tb.fa1)
	tb.sched.At(500*time.Millisecond, func() { tb.fa1.Node().SetDown(true) })
	tb.sched.RunUntil(3 * time.Second)
	if mn.Registered() {
		t.Fatal("MN still registered through a downed agent")
	}
	if got := tb.stats.Expired.Value(); got == 0 {
		t.Fatal("lapsed grant not counted as expired")
	}
}

// TestReplayRejectedAtHA pins satellite authentication: a replayed
// registration (consumed nonce) and a stale-timestamp registration are
// both rejected and counted, while the legitimate flow keeps working.
func TestReplayRejectedAtHA(t *testing.T) {
	tb := newTestbed(t)
	a, err := auth.New([]byte("test-secret"))
	if err != nil {
		t.Fatal(err)
	}
	tb.ha.SetAuth(a, 3*time.Second)
	tb.mn.SetAuth(a)

	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(time.Second)
	if !tb.mn.Registered() {
		t.Fatal("signed registration rejected")
	}
	if got := tb.stats.AuthChecks.Value(); got == 0 {
		t.Fatal("HA performed no auth checks")
	}
	if got := tb.stats.Replays.Value(); got != 0 {
		t.Fatalf("live flow counted %d replays", got)
	}

	// Replay the consumed nonce 0 (the MN's first transmission went out
	// at virtual time zero) with a perfectly valid token.
	attacker := tb.net.NewNode("attacker")
	replay := &RegistrationRequest{
		Home: tb.mn.Home(), HomeAg: addr.MustParse("172.16.0.1"),
		CareOf: tb.fa1.CareOf(), Lifetime: time.Minute, ID: 999,
		HasAuth: true, Nonce: 0,
	}
	copy(replay.Token[:], a.Token(tb.mn.Home(), 0))
	tb.injectControl(attacker, replay)
	tb.sched.RunUntil(2 * time.Second)
	if got := tb.stats.Replays.Value(); got != 1 {
		t.Fatalf("replays = %d after nonce replay, want 1", got)
	}

	// A stale timestamp outside the 3s window is a replay too, even for
	// an MN the HA has never seen (the window check precedes the
	// per-node freshness state). Advance past the window first: nonce 0
	// is only stale once the virtual clock has left it behind.
	tb.sched.RunUntil(4 * time.Second)
	otherHome := addr.MustParse("172.16.0.7")
	stale := &RegistrationRequest{
		Home: otherHome, HomeAg: addr.MustParse("172.16.0.1"),
		CareOf: tb.fa1.CareOf(), Lifetime: time.Minute, ID: 1000,
		HasAuth: true, Nonce: 0,
	}
	copy(stale.Token[:], a.Token(otherHome, 0))
	tb.injectControl(attacker, stale)
	tb.sched.RunUntil(6 * time.Second)
	if got := tb.stats.Replays.Value(); got != 2 {
		t.Fatalf("replays = %d after stale timestamp, want 2", got)
	}
	if _, ok := tb.ha.Binding(otherHome); ok {
		t.Fatal("stale registration installed a binding")
	}

	// An unsigned request is denied outright once auth is armed.
	bare := &RegistrationRequest{
		Home: otherHome, HomeAg: addr.MustParse("172.16.0.1"),
		CareOf: tb.fa1.CareOf(), Lifetime: time.Minute, ID: 1001,
	}
	tb.injectControl(attacker, bare)
	tb.sched.RunUntil(7 * time.Second)
	if _, ok := tb.ha.Binding(otherHome); ok {
		t.Fatal("unsigned registration installed a binding")
	}
}
