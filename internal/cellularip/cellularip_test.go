package cellularip

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// cipBed builds the access network of Fig 2.3:
//
//	        gateway (gw) ---- inet ---- cn
//	       /        \
//	    bsL          bsR
//	   /   \            \
//	bsLL   bsLR          bsRR
//
// Hosts attach to the leaves. Wired links 2ms.
type cipBed struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	reg   *metrics.Registry
	stats *Stats
	cfg   Config

	gw, bsL, bsR, bsLL, bsLR, bsRR *BaseStation
	cn                             *netsim.Node
	cnRouter                       *netsim.StaticRouter

	host    *MobileHost
	hostGot []*packet.Packet
}

const (
	cipWired = 2 * time.Millisecond
	hostIP   = "10.0.0.100"
	cnIP     = "192.0.2.1"
)

func newCIPBed(t *testing.T, cfg Config) *cipBed {
	t.Helper()
	b := &cipBed{
		sched: simtime.NewScheduler(),
		reg:   metrics.NewRegistry(),
		cfg:   cfg,
	}
	b.net = netsim.New(b.sched, simtime.NewRand(7))
	b.stats = NewStats(b.reg)

	mk := func(name string) *netsim.Node { return b.net.NewNode(name) }
	gwNode := mk("gw")
	gwNode.AddAddr(addr.MustParse("10.0.0.1"))
	b.gw = NewBaseStation(gwNode, cfg, b.stats)
	b.bsL = NewBaseStation(mk("bsL"), cfg, b.stats)
	b.bsL.Node().AddAddr(addr.MustParse("10.0.0.2"))
	b.bsR = NewBaseStation(mk("bsR"), cfg, b.stats)
	b.bsR.Node().AddAddr(addr.MustParse("10.0.0.3"))
	b.bsLL = NewBaseStation(mk("bsLL"), cfg, b.stats)
	b.bsLL.Node().AddAddr(addr.MustParse("10.0.0.4"))
	b.bsLR = NewBaseStation(mk("bsLR"), cfg, b.stats)
	b.bsLR.Node().AddAddr(addr.MustParse("10.0.0.5"))
	b.bsRR = NewBaseStation(mk("bsRR"), cfg, b.stats)
	b.bsRR.Node().AddAddr(addr.MustParse("10.0.0.6"))

	lc := netsim.LinkConfig{Delay: cipWired}
	b.gw.ConnectChild(b.bsL, lc)
	b.gw.ConnectChild(b.bsR, lc)
	b.bsL.ConnectChild(b.bsLL, lc)
	b.bsL.ConnectChild(b.bsLR, lc)
	b.bsR.ConnectChild(b.bsRR, lc)

	b.cn = mk("cn")
	b.cn.AddAddr(addr.MustParse(cnIP))
	b.cnRouter = netsim.NewStaticRouter(b.cn)
	inet := mk("inet")
	inetRouter := netsim.NewStaticRouter(inet)
	lGW := b.net.Connect(inet, gwNode, lc)
	lCN := b.net.Connect(inet, b.cn, lc)
	inetRouter.AddRoute(addr.MustParsePrefix("10.0.0.0/16"), lGW)
	inetRouter.AddRoute(addr.MustParsePrefix("192.0.2.0/24"), lCN)
	b.cnRouter.Default = lCN

	hostNode := mk("host")
	b.host = NewMobileHost(hostNode, addr.MustParse(hostIP), cfg, b.stats)
	b.host.OnData = func(p *packet.Packet) { b.hostGot = append(b.hostGot, p.Clone()) }
	return b
}

func (b *cipBed) cnSend(seq uint32) {
	pkt := packet.New(b.cn.Addr(), b.host.IP(), packet.ClassStreaming, 5, seq, []byte("data"))
	pkt.SentAt = b.sched.Now()
	b.cnRouter.Forward(pkt)
}

func (b *cipBed) run(t *testing.T, until time.Duration) {
	t.Helper()
	b.sched.RunUntil(until)
}

// Hosts send no uplink data, so stations forward none: data from the air
// drops at the serving station as unroutable, and nothing refreshes the
// caches from it.
func TestUplinkDataHasNoRoute(t *testing.T) {
	b := newCIPBed(t, DefaultConfig())
	var drops []metrics.DropReason
	b.net.SetObserver(dropRecorder(func(r metrics.DropReason) { drops = append(drops, r) }))
	up := packet.New(b.host.IP(), b.cn.Addr(), packet.ClassInteractive, 1, 0, []byte("up"))
	if err := b.net.DeliverDirect(b.host.Node(), b.bsLL.Node(), up, b.cfg.AirDelay, 0); err != nil {
		t.Fatal(err)
	}
	b.run(t, time.Second)
	if len(drops) != 1 || drops[0] != metrics.DropNoRoute {
		t.Fatalf("drops %v, want one %v", drops, metrics.DropNoRoute)
	}
	if b.bsLL.RoutingCache().Len() != 0 || b.gw.RoutingCache().Len() != 0 {
		t.Fatal("uplink data refreshed a routing cache")
	}
}

// dropRecorder adapts a callback to netsim.Observer.
type dropRecorder func(metrics.DropReason)

func (f dropRecorder) OnDrop(_ *netsim.Node, _ *packet.Packet, r metrics.DropReason) { f(r) }

func TestRouteUpdateBuildsChainAndDownlinkFollows(t *testing.T) {
	b := newCIPBed(t, DefaultConfig())
	b.host.AttachHard(b.bsLL)
	b.run(t, 100*time.Millisecond)
	// Chain: gw->bsL, bsL->bsLL, bsLL->air.
	if m := b.gw.RoutingCache().Lookup(b.host.IP()); len(m) != 1 || m[0].Via != b.bsL.Node() {
		t.Fatalf("gateway mapping = %+v", m)
	}
	if m := b.bsL.RoutingCache().Lookup(b.host.IP()); len(m) != 1 || m[0].Via != b.bsLL.Node() {
		t.Fatalf("bsL mapping = %+v", m)
	}
	if m := b.bsLL.RoutingCache().Lookup(b.host.IP()); len(m) != 1 || !m[0].Air {
		t.Fatalf("bsLL mapping = %+v", m)
	}
	b.cnSend(1)
	b.run(t, 200*time.Millisecond)
	if len(b.hostGot) != 1 {
		t.Fatalf("host got %d packets", len(b.hostGot))
	}
}

func TestSoftStateExpiresWithoutRefresh(t *testing.T) {
	cfg := DefaultConfig()
	b := newCIPBed(t, cfg)
	b.host.AttachHard(b.bsLL)
	b.run(t, 50*time.Millisecond)
	// Detach silently; stop refresh.
	b.host.Detach()
	b.run(t, b.sched.Now()+cfg.RouteTimeout+cfg.PagingTimeout+time.Second)
	if m := b.gw.RoutingCache().Lookup(b.host.IP()); len(m) != 0 {
		t.Fatalf("routing entry survived: %+v", m)
	}
	if m := b.gw.PagingCache().Lookup(b.host.IP()); len(m) != 0 {
		t.Fatalf("paging entry survived: %+v", m)
	}
}

func TestActiveHostRefreshesRoute(t *testing.T) {
	cfg := DefaultConfig()
	b := newCIPBed(t, cfg)
	b.host.AttachHard(b.bsLL)
	// Keep the host active with periodic downlink data so route updates
	// continue.
	seq := uint32(0)
	tick := b.sched.Every(300*time.Millisecond, func() {
		seq++
		b.cnSend(seq)
	})
	defer tick.Stop()
	b.run(t, 5*time.Second)
	if m := b.gw.RoutingCache().Lookup(b.host.IP()); len(m) == 0 {
		t.Fatal("active host's routing chain expired")
	}
	if b.stats.RouteUpdates.Value() == 0 {
		t.Fatal("no route updates recorded")
	}
}

func TestIdleTransitionAndPaging(t *testing.T) {
	cfg := DefaultConfig()
	b := newCIPBed(t, cfg)
	b.host.AttachHard(b.bsLL)
	b.run(t, 50*time.Millisecond)
	if b.host.State() != StateActive {
		t.Fatal("host should be active after attach")
	}
	// No traffic: host goes idle, stops route updates, starts paging.
	b.run(t, 10*time.Second)
	if b.host.State() != StateIdle {
		t.Fatal("host did not go idle")
	}
	if b.stats.IdleTransitions.Value() != 1 {
		t.Fatalf("idle transitions = %d", b.stats.IdleTransitions.Value())
	}
	if b.stats.PagingUpdates.Value() == 0 {
		t.Fatal("no paging updates while idle")
	}
	// Routing chain is gone; paging chain remains.
	if m := b.gw.RoutingCache().Lookup(b.host.IP()); len(m) != 0 {
		t.Fatal("idle host still has routing state")
	}
	if m := b.gw.PagingCache().Lookup(b.host.IP()); len(m) == 0 {
		t.Fatal("idle host lost paging state")
	}
	// A downlink packet pages the host and wakes it.
	got := len(b.hostGot)
	b.cnSend(42)
	b.run(t, b.sched.Now()+time.Second)
	if len(b.hostGot) != got+1 {
		t.Fatalf("paged packet not delivered (got %d)", len(b.hostGot)-got)
	}
	if b.host.State() != StateActive {
		t.Fatal("paged host did not wake")
	}
	if b.stats.Pages.Value() == 0 {
		t.Fatal("page not counted")
	}
}

func TestPagingFloodFindsUncachedHost(t *testing.T) {
	cfg := DefaultConfig()
	b := newCIPBed(t, cfg)
	// Attach without any update reaching the caches: directly attach at
	// the BS level and strip caches by waiting out timeouts while
	// suppressing the host's tickers.
	b.bsRR.AttachHost(b.host.IP(), b.host.Node())
	b.cnSend(1)
	b.run(t, time.Second)
	if len(b.hostGot) != 1 {
		t.Fatalf("flood delivery failed: %d", len(b.hostGot))
	}
	if b.stats.PagingBroadcasts.Value() == 0 {
		t.Fatal("no paging broadcasts counted")
	}
}

func TestHardHandoffLosesCrossoverWindow(t *testing.T) {
	cfg := DefaultConfig()
	b := newCIPBed(t, cfg)
	b.host.AttachHard(b.bsLL)
	b.run(t, 100*time.Millisecond)
	// Stream packets every 1ms across the handoff.
	for i := 0; i < 60; i++ {
		i := i
		b.sched.At(100*time.Millisecond+time.Duration(i)*time.Millisecond, func() { b.cnSend(uint32(i)) })
	}
	// Handoff bsLL -> bsLR at t=130ms (crossover is bsL, ~4ms update
	// path: host->bsLR air 4ms + bsLR->bsL wire 2ms).
	b.sched.At(130*time.Millisecond, func() { b.host.AttachHard(b.bsLR) })
	b.run(t, time.Second)
	if b.stats.StaleAirDrops.Value() == 0 {
		t.Fatal("hard handoff lost no packets — loss window not modelled")
	}
	if len(b.hostGot) == 60 {
		t.Fatal("all packets delivered despite hard handoff")
	}
	// But the stream recovers after the crossover updates.
	last := b.hostGot[len(b.hostGot)-1]
	if last.Seq != 59 {
		t.Fatalf("stream did not recover: last seq %d", last.Seq)
	}
}

func TestSemisoftHandoffNearZeroLoss(t *testing.T) {
	cfg := DefaultConfig()
	b := newCIPBed(t, cfg)
	b.host.AttachHard(b.bsLL)
	b.run(t, 100*time.Millisecond)
	for i := 0; i < 60; i++ {
		i := i
		b.sched.At(100*time.Millisecond+time.Duration(i)*time.Millisecond, func() { b.cnSend(uint32(i)) })
	}
	b.sched.At(130*time.Millisecond, func() { b.host.AttachSemisoft(b.bsLR) })
	b.run(t, time.Second)
	if got := b.stats.StaleAirDrops.Value(); got != 0 {
		t.Fatalf("semisoft handoff lost %d packets, want 0", got)
	}
	if len(b.hostGot) != 60 {
		t.Fatalf("delivered %d/60 with semisoft", len(b.hostGot))
	}
	if b.stats.BicastDuplicates.Value() == 0 {
		t.Fatal("no bicast duplicates — semisoft bicast never engaged")
	}
}

func TestSemisoftDegenerateCases(t *testing.T) {
	b := newCIPBed(t, DefaultConfig())
	// Semisoft with no previous attachment behaves like hard attach.
	b.host.AttachSemisoft(b.bsLL)
	b.run(t, 100*time.Millisecond)
	if b.host.Serving() != b.bsLL {
		t.Fatal("semisoft-from-nothing did not attach")
	}
	// Semisoft to the same station is a no-op.
	b.host.AttachSemisoft(b.bsLL)
	b.host.AttachSemisoft(nil)
	if b.host.Serving() != b.bsLL {
		t.Fatal("degenerate semisoft changed attachment")
	}
}

func TestHandoffCountsAndDetach(t *testing.T) {
	b := newCIPBed(t, DefaultConfig())
	b.host.AttachHard(b.bsLL)
	b.run(t, 50*time.Millisecond)
	b.host.AttachHard(b.bsLR)
	b.run(t, 100*time.Millisecond)
	b.host.AttachHard(b.bsRR)
	b.run(t, 150*time.Millisecond)
	if got := b.stats.Handoffs.Value(); got != 2 {
		t.Fatalf("handoffs = %d, want 2", got)
	}
	b.host.Detach()
	if b.host.Serving() != nil {
		t.Fatal("detach left serving station")
	}
}

// The host hands each (flow, seq) to OnData once, counts repeats as
// bicast duplicates, and passes up a seq 64 or more behind its flow's
// newest without judging it.
func TestDedup(t *testing.T) {
	b := newCIPBed(t, DefaultConfig())
	var got int
	b.host.OnData = func(*packet.Packet) { got++ }
	deliver := func(flow, seq uint32) {
		b.host.Receive(packet.New(b.cn.Addr(), b.host.IP(), packet.ClassInteractive, flow, seq, nil), nil, nil)
	}
	deliver(1, 1)
	deliver(1, 1)
	if got != 1 || b.stats.BicastDuplicates.Value() != 1 {
		t.Fatalf("after a repeat: %d delivered, %d duplicates; want 1 and 1", got, b.stats.BicastDuplicates.Value())
	}
	// Different flow, same seq is distinct.
	deliver(2, 1)
	if got != 2 {
		t.Fatal("flow collision")
	}
	// The window: seq 2 is 63 behind 65 and still judged, seq 1 is 64
	// behind and passed up although it was seen.
	deliver(1, 65)
	got = 0
	deliver(1, 2)
	deliver(1, 2)
	if got != 1 || b.stats.BicastDuplicates.Value() != 2 {
		t.Fatalf("63 behind: %d delivered, %d duplicates; want 1 and 2", got, b.stats.BicastDuplicates.Value())
	}
	deliver(1, 1)
	if got != 2 {
		t.Fatal("a seq 64 behind the newest was dropped")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	ru := &RouteUpdate{Host: addr.MustParse("10.0.0.9"), Seq: 77, Semisoft: true}
	msg, err := ParseMessage(ru.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*RouteUpdate); *got != *ru {
		t.Fatalf("route update round trip: %+v", got)
	}
	pu := &PagingUpdate{Host: addr.MustParse("10.0.0.9"), Seq: 78}
	msg, err = ParseMessage(pu.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*PagingUpdate); *got != *pu {
		t.Fatalf("paging update round trip: %+v", got)
	}
	for _, bad := range [][]byte{nil, {0}, {msgRouteUpdate, 1}, {msgPagingUpdate}, {99, 1, 2, 3}} {
		if _, err := ParseMessage(bad); err == nil {
			t.Fatalf("ParseMessage(%v) succeeded", bad)
		}
	}
}

func TestSoftCacheSemantics(t *testing.T) {
	sched := simtime.NewScheduler()
	c := NewSoftCache(time.Second, sched)
	ip := addr.MustParse("10.0.0.50")
	net := netsim.New(sched, simtime.NewRand(1))
	n1, n2 := net.NewNode("n1"), net.NewNode("n2")

	c.Replace(ip, Mapping{Via: n1})
	c.Add(ip, Mapping{Via: n2})
	if got := c.Lookup(ip); len(got) != 2 {
		t.Fatalf("after Add: %d mappings", len(got))
	}
	// Add of the same hop refreshes, not duplicates.
	c.Add(ip, Mapping{Via: n2})
	if got := c.Lookup(ip); len(got) != 2 {
		t.Fatalf("same-hop Add duplicated: %d", len(got))
	}
	// Replace collapses to one.
	c.Replace(ip, Mapping{Air: true})
	if got := c.Lookup(ip); len(got) != 1 || !got[0].Air {
		t.Fatalf("after Replace: %+v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Expiry.
	sched.At(2*time.Second, func() {})
	sched.Run()
	if got := c.Lookup(ip); len(got) != 0 {
		t.Fatalf("expired lookup: %+v", got)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after expiry = %d", c.Len())
	}
	c.Replace(ip, Mapping{Air: true})
	c.Remove(ip)
	if got := c.Lookup(ip); len(got) != 0 {
		t.Fatal("Remove left mappings")
	}
}

// Refreshing a host's route with Replace — once per route-update, the
// hot path of a moving population — reuses the host's backing array, and
// still collapses a semisoft pair to the one new mapping.
func TestSoftCacheReplaceInPlace(t *testing.T) {
	sched := simtime.NewScheduler()
	c := NewSoftCache(time.Second, sched)
	ip := addr.MustParse("10.0.0.50")
	net := netsim.New(sched, simtime.NewRand(1))
	n1, n2 := net.NewNode("n1"), net.NewNode("n2")

	c.Replace(ip, Mapping{Via: n1})
	if avg := testing.AllocsPerRun(100, func() { c.Replace(ip, Mapping{Via: n2}) }); avg != 0 {
		t.Fatalf("Replace of a cached host allocates %.1f allocs/op, want 0", avg)
	}
	c.Add(ip, Mapping{Via: n1})
	c.Replace(ip, Mapping{Air: true})
	if got := c.Lookup(ip); len(got) != 1 || !got[0].Air || got[0].Expires != time.Second {
		t.Fatalf("after Replace of a semisoft pair: %+v", got)
	}
}
