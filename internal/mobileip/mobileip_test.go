package mobileip

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// testbed wires the canonical Mobile IP topology of Fig 2.2:
//
//	CN ---- inet ---- HA (home prefix 172.16.0.0/16)
//	          \------ FA1 (10.1.0.0/16), FA2 (10.2.0.0/16)
//
// with 5ms wired links and an MN that can attach to either FA.
type testbed struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	reg   *metrics.Registry
	stats *Stats

	ha       *HomeAgent
	fa1, fa2 *ForeignAgent
	mn       *MobileNode
	cn       *netsim.Node
	cnRouter *netsim.StaticRouter
	fa1Core  *netsim.Link // FA1's only link, to the internet core

	mnGot []*packet.Packet
}

const wiredDelay = 5 * time.Millisecond

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	tb := &testbed{
		sched: simtime.NewScheduler(),
		reg:   metrics.NewRegistry(),
	}
	tb.net = netsim.New(tb.sched, simtime.NewRand(99))
	tb.stats = NewStats(tb.reg)

	inet := tb.net.NewNode("inet")
	inetRouter := netsim.NewStaticRouter(inet)

	haNode := tb.net.NewNode("ha")
	haNode.AddAddr(addr.MustParse("172.16.0.1"))
	tb.ha = NewHomeAgent(haNode, addr.MustParsePrefix("172.16.0.0/16"), tb.stats)

	fa1Node := tb.net.NewNode("fa1")
	fa1Node.AddAddr(addr.MustParse("10.1.0.1"))
	tb.fa1 = NewForeignAgent(fa1Node, addr.MustParse("10.1.0.1"), tb.stats)

	fa2Node := tb.net.NewNode("fa2")
	fa2Node.AddAddr(addr.MustParse("10.2.0.1"))
	tb.fa2 = NewForeignAgent(fa2Node, addr.MustParse("10.2.0.1"), tb.stats)

	tb.cn = tb.net.NewNode("cn")
	tb.cn.AddAddr(addr.MustParse("192.0.2.10"))
	tb.cnRouter = netsim.NewStaticRouter(tb.cn)

	cfg := netsim.LinkConfig{Delay: wiredDelay}
	lHA := tb.net.Connect(inet, haNode, cfg)
	lFA1 := tb.net.Connect(inet, fa1Node, cfg)
	tb.fa1Core = lFA1
	lFA2 := tb.net.Connect(inet, fa2Node, cfg)
	lCN := tb.net.Connect(inet, tb.cn, cfg)

	inetRouter.AddRoute(addr.MustParsePrefix("172.16.0.0/16"), lHA)
	inetRouter.AddRoute(addr.MustParsePrefix("10.1.0.0/16"), lFA1)
	inetRouter.AddRoute(addr.MustParsePrefix("10.2.0.0/16"), lFA2)
	inetRouter.AddRoute(addr.MustParsePrefix("192.0.2.0/24"), lCN)

	// Leaf routers default to the internet core.
	tb.ha.Router().Default = lHA
	tb.fa1.Router().Default = lFA1
	tb.fa2.Router().Default = lFA2
	tb.cnRouter.Default = lCN

	mnNode := tb.net.NewNode("mn")
	tb.mn = NewMobileNode(mnNode, addr.MustParse("172.16.0.5"), addr.MustParse("172.16.0.1"),
		DefaultMNConfig(), tb.stats)
	tb.mn.OnData = func(p *packet.Packet) { tb.mnGot = append(tb.mnGot, p.Clone()) }
	return tb
}

// cnSend has the correspondent node emit a data packet to the MN's home
// address.
func (tb *testbed) cnSend(seq uint32) {
	pkt := packet.New(tb.cn.Addr(), tb.mn.Home(), packet.ClassStreaming, 7, seq, []byte("payload"))
	pkt.SentAt = tb.sched.Now()
	tb.cnRouter.Forward(pkt)
}

func TestRegistrationCompletes(t *testing.T) {
	tb := newTestbed(t)
	var regLatency time.Duration
	tb.mn.OnRegistered = func(l time.Duration) { regLatency = l }
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(2 * time.Second)
	if !tb.mn.Registered() {
		t.Fatal("MN not registered")
	}
	b, ok := tb.ha.Binding(tb.mn.Home())
	if !ok || b.CareOf != tb.fa1.CareOf() {
		t.Fatalf("binding = %+v, %v", b, ok)
	}
	// Round trip: MN->FA air (5ms) + FA->inet->HA (10ms) + back (10ms) +
	// FA->MN air (5ms) = 30ms.
	if regLatency != 30*time.Millisecond {
		t.Fatalf("registration latency = %v, want 30ms", regLatency)
	}
	if tb.stats.RegLatency.Count() != 1 {
		t.Fatal("stats missed the registration")
	}
}

func TestTriangleRoutingDeliversToVisitor(t *testing.T) {
	tb := newTestbed(t)
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(time.Second)
	tb.cnSend(1)
	tb.sched.RunUntil(2 * time.Second)
	if len(tb.mnGot) != 1 {
		t.Fatalf("MN received %d packets", len(tb.mnGot))
	}
	if tb.mnGot[0].Dst != tb.mn.Home() {
		t.Fatal("delivered packet lost its home-address destination")
	}
	if tb.stats.Intercepts.Value() != 1 {
		t.Fatalf("intercepts = %d", tb.stats.Intercepts.Value())
	}
	if tb.stats.TunnelOverheadBytes.Value() != packet.HeaderSize {
		t.Fatalf("tunnel overhead = %d", tb.stats.TunnelOverheadBytes.Value())
	}
}

func TestUnboundPacketDropsAsStale(t *testing.T) {
	tb := newTestbed(t)
	// MN neither home nor registered.
	tb.cnSend(1)
	tb.sched.RunUntil(time.Second)
	if len(tb.mnGot) != 0 {
		t.Fatal("unbound packet delivered")
	}
	if tb.net.Dropped == 0 {
		t.Fatal("drop not accounted")
	}
}

func TestHandoffLosesInFlightPackets(t *testing.T) {
	tb := newTestbed(t)
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(time.Second)
	// Move to FA2 and immediately send packets: they are tunnelled to FA1
	// (stale binding) until re-registration completes.
	tb.mn.MoveTo(tb.fa2)
	tb.cnSend(1)
	tb.cnSend(2)
	tb.sched.RunUntil(10 * time.Second)
	if !tb.mn.Registered() {
		t.Fatal("MN failed to re-register")
	}
	if got := tb.stats.StaleAtFA.Value(); got != 2 {
		t.Fatalf("stale packets at old FA = %d, want 2", got)
	}
	if len(tb.mnGot) != 0 {
		t.Fatal("stale packets should not reach the MN")
	}
	// After re-registration, traffic flows to FA2.
	tb.cnSend(3)
	tb.sched.RunUntil(11 * time.Second)
	if len(tb.mnGot) != 1 {
		t.Fatalf("post-handoff delivery count = %d", len(tb.mnGot))
	}
}

func TestRegistrationRetriesOnLoss(t *testing.T) {
	tb := newTestbed(t)
	// FA1 is cut off from the core until halfway between the first and
	// second retransmissions, so the loss is driven by the clock, not by
	// where the link-loss stream's draws fall.
	tb.fa1Core.SetDown(true)
	var retriesWhileDown uint64
	tb.sched.At(DefaultMNConfig().RetryInterval*3/2, func() {
		retriesWhileDown = tb.stats.Retries.Value()
		tb.fa1Core.SetDown(false)
	})
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(30 * time.Second)
	if retriesWhileDown == 0 {
		t.Fatal("no retransmission before the links came up")
	}
	if !tb.mn.Registered() {
		t.Fatalf("MN never registered despite retries (retries=%d)", tb.stats.Retries.Value())
	}
}

func TestRegistrationFailureAfterMaxRetries(t *testing.T) {
	tb := newTestbed(t)
	tb.fa1Core.SetDown(true) // FA cut off from the core
	failed := false
	tb.mn.OnRegistrationFailed = func() { failed = true }
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(time.Minute)
	if tb.mn.Registered() {
		t.Fatal("registered through a dead link")
	}
	if !failed {
		t.Fatal("OnRegistrationFailed not invoked")
	}
}

func TestBindingExpiresWithoutRenewal(t *testing.T) {
	tb := newTestbed(t)
	cfg := DefaultMNConfig()
	cfg.Lifetime = 2 * time.Second
	mn2Node := tb.net.NewNode("mn2")
	mn2 := NewMobileNode(mn2Node, addr.MustParse("172.16.0.6"), addr.MustParse("172.16.0.1"), cfg, tb.stats)
	mn2.MoveTo(tb.fa1)
	tb.sched.RunUntil(time.Second)
	if _, ok := tb.ha.Binding(mn2.Home()); !ok {
		t.Fatal("binding missing")
	}
	// Detach the node so it cannot renew; binding must expire.
	tb.fa1.Detach(mn2.Home())
	mn2.cancelTimers()
	tb.sched.RunUntil(10 * time.Second)
	if _, ok := tb.ha.Binding(mn2.Home()); ok {
		t.Fatal("binding survived past lifetime")
	}
}

func TestRenewalKeepsBindingAlive(t *testing.T) {
	tb := newTestbed(t)
	cfg := DefaultMNConfig()
	cfg.Lifetime = 2 * time.Second
	mn2Node := tb.net.NewNode("mn2")
	mn2 := NewMobileNode(mn2Node, addr.MustParse("172.16.0.7"), addr.MustParse("172.16.0.1"), cfg, tb.stats)
	mn2.MoveTo(tb.fa1)
	tb.sched.RunUntil(20 * time.Second)
	if _, ok := tb.ha.Binding(mn2.Home()); !ok {
		t.Fatal("binding not kept alive by renewals")
	}
}

// The HA honours RFC 5944 deregistration — a registration with care-of
// address 0 — though no mobile node sends one: it accepts the request as
// a wire packet, the binding goes, and a later packet for the home
// address drops at the HA as stale.
func TestDeregistrationDropsBinding(t *testing.T) {
	tb := newTestbed(t)
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(time.Second)
	if _, ok := tb.ha.Binding(tb.mn.Home()); !ok {
		t.Fatal("no binding to deregister")
	}
	var codes []ReplyCode
	tb.cn.SetHandler(netsim.HandlerFunc(func(p *packet.Packet, _ *netsim.Node, _ *netsim.Link) {
		if msg, err := ParseMessage(p.Payload); err == nil {
			if r, ok := msg.(*RegistrationReply); ok {
				codes = append(codes, r.Code)
			}
		}
		packet.Release(p)
	}))
	dereg := &RegistrationRequest{Home: tb.mn.Home(), HomeAg: addr.MustParse("172.16.0.1"), ID: 2}
	tb.cnRouter.Forward(packet.NewControl(tb.cn.Addr(), dereg.HomeAg, packet.ProtoMobileIP, dereg.Marshal()))
	tb.sched.RunUntil(2 * time.Second)
	if len(codes) != 1 || codes[0] != CodeAccepted {
		t.Fatalf("reply codes = %v, want [%v]", codes, CodeAccepted)
	}
	if _, ok := tb.ha.Binding(tb.mn.Home()); ok {
		t.Fatal("binding survived deregistration")
	}
	var drops []metrics.DropReason
	tb.net.SetObserver(dropRecorder(func(r metrics.DropReason) { drops = append(drops, r) }))
	tb.cnSend(9)
	tb.sched.RunUntil(3 * time.Second)
	if len(tb.mnGot) != 0 || len(drops) != 1 || drops[0] != metrics.DropStale {
		t.Fatalf("after deregistration: %d delivered, drops %v, want one %v", len(tb.mnGot), drops, metrics.DropStale)
	}
}

// dropRecorder adapts a callback to netsim.Observer.
type dropRecorder func(metrics.DropReason)

func (f dropRecorder) OnDrop(_ *netsim.Node, _ *packet.Packet, r metrics.DropReason) { f(r) }

func TestMoveToSameAgentIsNoop(t *testing.T) {
	tb := newTestbed(t)
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(time.Second)
	sig := tb.stats.Signaling.Value()
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(2 * time.Second)
	if tb.stats.Signaling.Value() != sig {
		t.Fatal("re-moving to the same FA generated signalling")
	}
}

func TestStaleRegistrationCannotClobberNewer(t *testing.T) {
	tb := newTestbed(t)
	tb.mn.MoveTo(tb.fa1)
	tb.sched.RunUntil(time.Second)
	// Hand-craft a stale request (older ID) arriving late at the HA.
	stale := &RegistrationRequest{
		Home:     tb.mn.Home(),
		HomeAg:   addr.MustParse("172.16.0.1"),
		CareOf:   tb.fa2.CareOf(),
		Lifetime: time.Minute,
		ID:       0, // older than the MN's current ID
	}
	// The CN sends it, so the HA's reply comes back to a capturing handler.
	var codes []ReplyCode
	tb.cn.SetHandler(netsim.HandlerFunc(func(p *packet.Packet, _ *netsim.Node, _ *netsim.Link) {
		if msg, err := ParseMessage(p.Payload); err == nil {
			if r, ok := msg.(*RegistrationReply); ok {
				codes = append(codes, r.Code)
			}
		}
		packet.Release(p)
	}))
	pkt := packet.NewControl(tb.cn.Addr(), addr.MustParse("172.16.0.1"),
		packet.ProtoMobileIP, stale.Marshal())
	tb.cnRouter.Forward(pkt)
	tb.sched.RunUntil(2 * time.Second)
	if len(codes) != 1 || codes[0] != CodeDeniedIdentification {
		t.Fatalf("reply codes = %v, want [%v]", codes, CodeDeniedIdentification)
	}
	b, ok := tb.ha.Binding(tb.mn.Home())
	if !ok || b.CareOf != tb.fa1.CareOf() {
		t.Fatalf("stale request clobbered binding: %+v, %v", b, ok)
	}
}
