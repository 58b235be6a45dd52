package multitier

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// tierBed wires the full Fig 4.1 architecture: the multi-tier fabric, a
// Home Agent serving 172.16/16, a correspondent node, and the Internet
// core joining the roots.
type tierBed struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	reg   *metrics.Registry
	stats *Stats
	top   *topology.Topology
	fab   *Fabric
	dir   *Directory

	ha       *mobileip.HomeAgent
	cn       *netsim.Node
	cnRouter *netsim.StaticRouter

	mn    *Mobile
	mnGot []*packet.Packet
	// sigs is the measurement scratch evaluate reuses across ticks.
	sigs []radio.Signal
}

const (
	tierWired = 2 * time.Millisecond
	mnHome    = "172.16.0.5"
	haAddr    = "172.16.0.1"
	cnAddr    = "192.0.2.10"
)

func newTierBed(t *testing.T, stationCfg func(topology.Tier) StationConfig) *tierBed {
	t.Helper()
	b := &tierBed{
		sched: simtime.NewScheduler(),
		reg:   metrics.NewRegistry(),
	}
	b.net = netsim.New(b.sched, simtime.NewRand(31))
	b.stats = NewStats(b.reg)
	b.dir = NewDirectory()

	var err error
	b.top, err = topology.Build(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fcfg := DefaultFabricConfig()
	fcfg.WiredDelay = tierWired
	fcfg.StationConfigFor = stationCfg
	b.fab, err = BuildFabric(b.net, b.top, fcfg, b.dir, b.stats)
	if err != nil {
		t.Fatal(err)
	}

	inet := b.net.NewNode("inet")
	inetRouter := netsim.NewStaticRouter(inet)
	lc := netsim.LinkConfig{Delay: tierWired}

	haNode := b.net.NewNode("ha")
	haNode.AddAddr(addr.MustParse(haAddr))
	b.ha = mobileip.NewHomeAgent(haNode, addr.MustParsePrefix("172.16.0.0/16"), mobileip.NewStats(nil))
	lHA := b.net.Connect(inet, haNode, lc)
	inetRouter.AddRoute(addr.MustParsePrefix("172.16.0.0/16"), lHA)
	b.ha.Router().Default = lHA

	b.cn = b.net.NewNode("cn")
	b.cn.AddAddr(addr.MustParse(cnAddr))
	b.cnRouter = netsim.NewStaticRouter(b.cn)
	lCN := b.net.Connect(inet, b.cn, lc)
	inetRouter.AddRoute(addr.MustParsePrefix("192.0.2.0/24"), lCN)
	b.cnRouter.Default = lCN

	for _, root := range b.fab.Roots {
		l := b.net.Connect(inet, root.Node(), lc)
		inetRouter.AddRoute(root.Cell().Prefix, l)
		root.external.Default = l
	}

	prof := &Profile{
		Home:      addr.MustParse(mnHome),
		HomeAgent: addr.MustParse(haAddr),
		DemandBPS: 64000,
	}
	b.dir.AddProfile(prof)
	mnNode := b.net.NewNode("mn")
	b.mn = NewMobile(mnNode, prof, b.top, b.dir, DefaultPolicy(), DefaultMobileConfig(), b.stats)
	b.mn.OnData = func(p *packet.Packet) { b.mnGot = append(b.mnGot, p.Clone()) }
	return b
}

func (b *tierBed) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := b.sched.RunUntil(until); err != nil {
		t.Fatal(err)
	}
}

func (b *tierBed) cnSend(seq uint32) {
	pkt := packet.New(b.cn.Addr(), b.mn.Home(), packet.ClassStreaming, 9, seq, []byte("stream"))
	pkt.SentAt = b.sched.Now()
	b.cnRouter.Forward(pkt)
}

// evaluate runs one measurement round of m at pos with the given speed,
// the way the scenario engine's driver does: measure every tier's
// in-range cells (no shadowing, so tier choices in these tests are
// exact), then decide.
func (b *tierBed) evaluate(m *Mobile, pos geo.Point, speed float64) {
	b.sigs = b.top.MeasureInto(b.sigs, pos, nil, topology.TierPico)
	m.EvaluateSignals(speed, b.sigs)
}

// evaluateAt runs one MN measurement round at a micro cell's centre with
// the given speed.
func (b *tierBed) evaluateAt(cell topology.CellID, speed float64) {
	b.evaluate(b.mn, b.top.Cell(cell).Pos, speed)
}

// microsOfDomain returns micro cells of a domain in id order.
func (b *tierBed) microsOfDomain(dom int) []topology.CellID {
	var out []topology.CellID
	for _, c := range b.top.CellsOfTier(topology.TierMicro) {
		if c.Domain == dom {
			out = append(out, c.ID)
		}
	}
	return out
}

// noShadow makes signal measurement deterministic for tests.
func noShadowStations(tier topology.Tier) StationConfig { return DefaultStationConfig(tier) }

func TestInitialAttachAndEndToEndDelivery(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micro := b.microsOfDomain(0)[0]
	b.evaluateAt(micro, 1.5)
	b.run(t, 2*time.Second)
	if b.mn.ServingCell() == topology.NoCell {
		t.Fatal("MN failed to attach")
	}
	if tier := b.top.TierOf(b.mn.ServingCell()); tier != topology.TierMicro && tier != topology.TierPico {
		t.Fatalf("slow MN attached to %v", tier)
	}
	// Anchor registered with the HA.
	root := b.fab.Roots[0]
	if !root.AnchorRegistered(b.mn.Home()) {
		t.Fatal("root anchor never registered with HA")
	}
	if b.ha.Binding(b.mn.Home()) == nil {
		t.Fatal("HA holds no binding")
	}
	// Downlink end to end.
	b.cnSend(1)
	b.run(t, 3*time.Second)
	if len(b.mnGot) != 1 {
		t.Fatalf("MN received %d packets", len(b.mnGot))
	}
	// Uplink end to end.
	var cnGot int
	b.cnRouter.Local = netsim.HandlerFunc(func(p *packet.Packet, _ *netsim.Node, _ *netsim.Link) { cnGot++ })
	b.mn.SendData(packet.New(b.mn.Home(), b.cn.Addr(), packet.ClassInteractive, 2, 0, []byte("up")))
	b.run(t, 4*time.Second)
	if cnGot != 1 {
		t.Fatalf("CN received %d uplink packets", cnGot)
	}
}

// The MN hands each (flow, seq) to OnData once: a repeat is dropped, a
// packet reordered within the window is passed up, and equal seqs on two
// flows are distinct.
func TestMobileFiltersDuplicates(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	deliver := func(flow, seq uint32) {
		b.mn.Receive(packet.New(b.cn.Addr(), b.mn.Home(), packet.ClassStreaming, flow, seq, nil), nil, nil)
	}
	deliver(9, 40)
	deliver(9, 40)
	if len(b.mnGot) != 1 {
		t.Fatalf("after a repeat: %d delivered, want 1", len(b.mnGot))
	}
	deliver(9, 1)
	if len(b.mnGot) != 2 || b.mnGot[1].Seq != 1 {
		t.Fatalf("a packet 39 behind was not passed up: %d delivered", len(b.mnGot))
	}
	deliver(9, 1)
	deliver(10, 40)
	if len(b.mnGot) != 3 || b.mnGot[2].FlowID != 10 {
		t.Fatalf("flow 10 seq 40 after flow 9's: %d delivered, want 3", len(b.mnGot))
	}
}

func TestLocationTablesPopulateThePath(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micro := b.microsOfDomain(0)[0]
	b.evaluateAt(micro, 1.5)
	b.run(t, 2*time.Second)
	serving := b.mn.ServingCell()
	for cid := serving; cid != topology.NoCell; cid = b.top.Cells[cid].Parent {
		st := b.fab.Station(cid)
		if _, ok := st.Tables().Lookup(b.mn.Home()); !ok {
			t.Fatalf("station %s has no record", st.Cell().Name)
		}
	}
	// A station outside the path has none.
	other := b.microsOfDomain(3)[0]
	if _, ok := b.fab.Station(other).Tables().Lookup(b.mn.Home()); ok {
		t.Fatal("off-path station has a record")
	}
}

// streamAcross sends pkts packets 5ms apart starting at start.
func (b *tierBed) streamAcross(start time.Duration, n int) {
	for i := 0; i < n; i++ {
		i := i
		b.sched.At(start+time.Duration(i)*5*time.Millisecond, func() { b.cnSend(uint32(i)) })
	}
}

func TestIntraDomainMicroMicroHandoffContinuity(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micros := b.microsOfDomain(0)
	b.evaluateAt(micros[0], 1.5)
	b.run(t, 2*time.Second)
	from := b.mn.ServingCell()

	var kinds []HandoffKind
	b.mn.OnHandoff = func(k HandoffKind, _ time.Duration) { kinds = append(kinds, k) }

	const n = 100
	b.streamAcross(2*time.Second, n) // 2.0s .. 2.5s
	// Move to a sibling micro at 2.2s.
	b.sched.At(2200*time.Millisecond, func() { b.evaluateAt(micros[2], 1.5) })
	b.run(t, 4*time.Second)

	if b.mn.ServingCell() == from {
		t.Fatal("handoff never happened")
	}
	if len(kinds) != 1 || kinds[0] != KindIntraMicroMicro {
		t.Fatalf("kinds = %v", kinds)
	}
	if len(b.mnGot) != n {
		t.Fatalf("delivered %d/%d across handoff (stale=%d buffered=%d drained=%d)",
			len(b.mnGot), n, b.stats.StaleAirDrops.Value(), b.stats.Buffered.Value(), b.stats.Drained.Value())
	}
	if b.stats.Drained.Value() == 0 {
		t.Fatal("resource switching never engaged (expected buffered in-flight packets)")
	}
}

func TestResourceSwitchingDisabledLosesPackets(t *testing.T) {
	cfg := func(tier topology.Tier) StationConfig {
		c := DefaultStationConfig(tier)
		c.ResourceSwitching = false
		return c
	}
	b := newTierBed(t, cfg)
	micros := b.microsOfDomain(0)
	b.evaluateAt(micros[0], 1.5)
	b.run(t, 2*time.Second)

	const n = 100
	b.streamAcross(2*time.Second, n)
	b.sched.At(2200*time.Millisecond, func() { b.evaluateAt(micros[2], 1.5) })
	b.run(t, 4*time.Second)

	if len(b.mnGot) == n {
		t.Fatal("no loss without resource switching — ablation shows no effect")
	}
	if b.stats.StaleAirDrops.Value() == 0 {
		t.Fatal("stale drops not counted")
	}
}

func TestMicroToMacroAndBack(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micros := b.microsOfDomain(0)
	b.evaluateAt(micros[0], 1.5)
	b.run(t, time.Second)
	first := b.mn.ServingCell()
	if tierOf := b.top.TierOf(first); tierOf != topology.TierMicro && tierOf != topology.TierPico {
		t.Fatalf("expected small-cell attach, got %v", tierOf)
	}
	var kinds []HandoffKind
	b.mn.OnHandoff = func(k HandoffKind, _ time.Duration) { kinds = append(kinds, k) }

	// Speed up: the same position now prefers the macro tier.
	b.sched.At(time.Second, func() { b.evaluateAt(micros[0], 25) })
	b.run(t, 2*time.Second)
	if tierOf := b.top.TierOf(b.mn.ServingCell()); tierOf != topology.TierMacro && tierOf != topology.TierRoot {
		t.Fatalf("fast MN stayed on %v", tierOf)
	}
	// Slow down: back to the micro tier.
	b.sched.At(2*time.Second, func() { b.evaluateAt(micros[0], 1.0) })
	b.run(t, 3*time.Second)
	if tierOf := b.top.TierOf(b.mn.ServingCell()); tierOf != topology.TierMicro && tierOf != topology.TierPico {
		t.Fatalf("slow MN stayed on %v", tierOf)
	}
	if len(kinds) != 2 || kinds[0] != KindIntraMicroMacro || kinds[1] != KindIntraMacroMicro {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestInterDomainSameUpper(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	// Domains 0 and 1 share root 0 in the default layout.
	m0 := b.microsOfDomain(0)[0]
	m1 := b.microsOfDomain(1)[0]
	if !b.top.SameUpperBS(m0, m1) || b.top.SameDomain(m0, m1) {
		t.Fatal("test precondition: m0/m1 must be different domains, same root")
	}
	b.evaluateAt(m0, 1.5)
	b.run(t, 2*time.Second)

	var kinds []HandoffKind
	b.mn.OnHandoff = func(k HandoffKind, _ time.Duration) { kinds = append(kinds, k) }
	const n = 100
	b.streamAcross(2*time.Second, n)
	b.sched.At(2200*time.Millisecond, func() { b.evaluateAt(m1, 1.5) })
	b.run(t, 5*time.Second)

	if len(kinds) != 1 || kinds[0] != KindInterSameUpper {
		t.Fatalf("kinds = %v", kinds)
	}
	if got := float64(len(b.mnGot)) / n; got < 0.97 {
		t.Fatalf("same-upper continuity: delivered %.0f%%", got*100)
	}
	// The shared anchor means no new HA registration was needed.
	if regs := b.stats.AnchorRegistrations.Value(); regs != 1 {
		t.Fatalf("anchor registrations = %d, want 1 (shared upper BS)", regs)
	}
}

func TestInterDomainDifferentUpper(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	m0 := b.microsOfDomain(0)[0] // under root 0
	m2 := b.microsOfDomain(2)[0] // under root 1
	if b.top.SameUpperBS(m0, m2) {
		t.Fatal("test precondition: different roots")
	}
	b.evaluateAt(m0, 1.5)
	b.run(t, 2*time.Second)
	oldRoot := b.fab.Roots[0]

	var kinds []HandoffKind
	b.mn.OnHandoff = func(k HandoffKind, _ time.Duration) { kinds = append(kinds, k) }
	const n = 200
	b.streamAcross(2*time.Second, n) // 2.0 .. 3.0s
	b.sched.At(2300*time.Millisecond, func() { b.evaluateAt(m2, 1.5) })
	b.run(t, 8*time.Second)

	if len(kinds) != 1 || kinds[0] != KindInterDiffUpper {
		t.Fatalf("kinds = %v", kinds)
	}
	// The new root must have registered with the HA (home network
	// involvement, Fig 3.3) and the binding must now point there.
	newRoot := b.fab.Roots[1]
	if !newRoot.AnchorRegistered(b.mn.Home()) {
		t.Fatal("new root never registered")
	}
	bind := b.ha.Binding(b.mn.Home())
	if bind == nil || bind.CareOf != newRoot.AnchorAddr() {
		t.Fatalf("HA binding = %+v, want care-of %v", bind, newRoot.AnchorAddr())
	}
	if regs := b.stats.AnchorRegistrations.Value(); regs < 2 {
		t.Fatalf("anchor registrations = %d, want >= 2", regs)
	}
	// In-flight packets tunnelled to the old root were redirected across
	// roots rather than dropped.
	if b.stats.Redirects.Value()+b.stats.Drained.Value() == 0 {
		t.Fatal("no redirect/drain activity at the old domain")
	}
	_ = oldRoot
	// Delivery continuity within a small loss budget (cross-Internet
	// redirection window).
	if got := float64(len(b.mnGot)) / n; got < 0.95 {
		t.Fatalf("diff-upper continuity: delivered %.1f%% (stale=%d discards=%d)",
			got*100, b.stats.StaleAirDrops.Value(), b.stats.BufferDiscards.Value())
	}
}

func TestAuthRejectsForeignMN(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	// Equip domain 0 with an authenticator wired to its head station via
	// a minimal controller.
	domainKey, err := auth.New([]byte("domain-0-secret"))
	if err != nil {
		t.Fatal(err)
	}
	b.dir.SetDomainAuth(0, domainKey)
	head := b.fab.Station(b.top.Domains[0].Root)
	head.SetController(ctrl{a: domainKey})
	// Point every station of domain 0 at the same controller so micro
	// attaches authenticate too.
	for _, cid := range b.top.Domains[0].Cells {
		b.fab.Station(cid).SetController(ctrl{a: domainKey})
	}

	// Legitimate MN (knows the key through the directory) attaches fine.
	micro := b.microsOfDomain(0)[0]
	b.evaluateAt(micro, 1.5)
	b.run(t, time.Second)
	if b.mn.ServingCell() == topology.NoCell {
		t.Fatal("legitimate MN rejected")
	}

	// An impostor with the wrong key is refused.
	wrongKey, err := auth.New([]byte("not-the-domain-secret"))
	if err != nil {
		t.Fatal(err)
	}
	impProf := &Profile{Home: addr.MustParse("172.16.0.66"), HomeAgent: addr.MustParse(haAddr), DemandBPS: 1000}
	b.dir.AddProfile(impProf)
	impDir := NewDirectory()
	impDir.AddProfile(impProf)
	for cid, st := range b.fab.Stations {
		_ = cid
		impDir.registerStation(st)
	}
	impDir.SetDomainAuth(0, wrongKey) // impostor signs with the wrong key
	impNode := b.net.NewNode("impostor")
	imp := NewMobile(impNode, impProf, b.top, impDir, DefaultPolicy(), DefaultMobileConfig(), b.stats)
	b.evaluate(imp, b.top.Cell(micro).Pos, 1.5)
	b.run(t, 2*time.Second)
	if imp.ServingCell() != topology.NoCell {
		t.Fatal("impostor attached")
	}
	if b.stats.AuthFailures.Value() == 0 {
		t.Fatal("auth failure not counted")
	}
}

// ctrl is a minimal multitier.Controller for auth tests (the full RSMC
// lives in the rsmc package, which depends on this one).
type ctrl struct{ a *auth.Authenticator }

func (c ctrl) Authorize(mn addr.IP, nonce uint64, token []byte) error {
	return c.a.VerifyFresh(mn, nonce, token)
}
func (c ctrl) OnAttach(addr.IP) {}
func (c ctrl) OnDetach(addr.IP) {}

func TestAdmissionFallbackToMacro(t *testing.T) {
	// Micro cells with a single channel already in use force the MN's
	// decision engine to fall back to the macro tier (§3.2 case c).
	cfg := func(tier topology.Tier) StationConfig {
		c := DefaultStationConfig(tier)
		if tier == topology.TierMicro || tier == topology.TierPico {
			c.Channels, c.GuardChannels = 0, 0 // nothing admissible
		}
		return c
	}
	b := newTierBed(t, cfg)
	micro := b.microsOfDomain(0)[0]
	b.evaluateAt(micro, 1.5)
	b.run(t, time.Second)
	if b.mn.ServingCell() == topology.NoCell {
		t.Fatal("MN failed to attach anywhere")
	}
	if tier := b.top.TierOf(b.mn.ServingCell()); tier != topology.TierMacro && tier != topology.TierRoot {
		t.Fatalf("expected macro fallback, got %v", tier)
	}
}

func TestAdmissionTelemetryReasonCoded(t *testing.T) {
	// A successful attach is one fresh admission: the reason-coded
	// counters partition admission decisions, and occupancy is observed.
	b := newTierBed(t, noShadowStations)
	micro := b.microsOfDomain(0)[0]
	b.evaluateAt(micro, 1.5)
	b.run(t, time.Second)
	if b.mn.ServingCell() == topology.NoCell {
		t.Fatal("MN failed to attach")
	}
	if got := b.stats.Admitted.Value(); got != 1 {
		t.Fatalf("admitted = %d, want 1", got)
	}
	if got := b.stats.ShedCapacity.Value() + b.stats.ShedPolicy.Value(); got != 0 {
		t.Fatalf("shed counters = %d on an uncontended arena", got)
	}
	servingTier := b.top.TierOf(b.mn.ServingCell())
	occ := b.stats.TierOccupancy[servingTier]
	if occ == nil || occ.Count() == 0 {
		t.Fatalf("no occupancy samples on serving tier %v", servingTier)
	}
	if occ.Max() <= 0 {
		t.Fatal("occupancy sample never rose above zero")
	}
	// Every station is bound to its root's sample at construction, so the
	// serving cell's one grant also lands in its root's aggregate.
	root := b.top.RootOf(b.mn.ServingCell())
	if got, want := b.stats.RootOccupancy(root).Count(), occ.Count(); got != want {
		t.Fatalf("root %v occupancy count = %d, want the serving tier's %d", root, got, want)
	}
}

func TestAdmissionTelemetryShedCapacity(t *testing.T) {
	// The MN-side probe normally filters full cells before requesting, so
	// capacity sheds happen when concurrent MNs race a pool that looked
	// admissible at decision time. Reproduce the losing side directly: a
	// request arriving at an exhausted station must be reason-coded as a
	// capacity shed, not a policy one.
	b := newTierBed(t, noShadowStations)
	micro := b.microsOfDomain(0)[0]
	st := b.fab.Station(micro)
	for st.Resources().CanAdmit(qos.Request{BPS: 0, Handoff: true}) {
		if _, err := st.Resources().Admit(qos.Request{BPS: 0, Handoff: true}); err != nil {
			t.Fatal(err)
		}
	}
	st.handleHandoffRequest(&HandoffRequest{
		MN: b.mn.Home(), From: topology.NoCell, To: micro, BPS: 64_000, Seq: 1,
	}, b.mn.Node())
	b.run(t, 100*time.Millisecond)
	if got := b.stats.ShedCapacity.Value(); got != 1 {
		t.Fatalf("shed-capacity = %d, want 1", got)
	}
	if got := b.stats.Admitted.Value() + b.stats.ShedPolicy.Value(); got != 0 {
		t.Fatalf("admitted+policy = %d for a refused request", got)
	}
	if got := b.stats.HandoffRejects.Value(); got != 1 {
		t.Fatalf("handoff rejects = %d, want 1", got)
	}
}

func TestIdleWakeViaPaging(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micro := b.microsOfDomain(0)[0]
	b.evaluateAt(micro, 1.5)
	b.run(t, time.Second)
	// Let the MN go idle (ActiveTimeout 2s) and its micro-station table
	// records expire (TTL 3s); paging refreshes arrive every 10s.
	b.run(t, 8*time.Second)
	if b.mn.State() != StateIdle {
		t.Fatal("MN did not go idle")
	}
	// Downlink data while idle: somewhere on the path a record is stale,
	// so the packet is paged/flooded — and must still arrive.
	got := len(b.mnGot)
	b.cnSend(77)
	b.run(t, 10*time.Second)
	if len(b.mnGot) != got+1 {
		t.Fatalf("paged packet not delivered")
	}
	if b.mn.State() != StateActive {
		t.Fatal("MN did not wake on data")
	}
}

func TestCoverageLossBuffersThenRecovers(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micros := b.microsOfDomain(0)
	b.evaluateAt(micros[0], 1.5)
	b.run(t, 2*time.Second)
	served := b.mn.ServingCell()

	detached := false
	b.mn.OnDetached = func() { detached = true }
	// Simulate total coverage loss: evaluate from far outside the arena.
	b.sched.At(2100*time.Millisecond, func() {
		b.evaluate(b.mn, geo.Pt(-1e7, -1e7), 1.5)
	})
	// Stream lands during the outage.
	b.streamAcross(2200*time.Millisecond, 10)
	// The MN reappears at a sibling micro.
	b.sched.At(2300*time.Millisecond, func() { b.evaluateAt(micros[2], 1.5) })
	b.run(t, 6*time.Second)

	if !detached {
		t.Fatal("coverage loss not signalled")
	}
	if b.mn.ServingCell() == served || b.mn.ServingCell() == topology.NoCell {
		t.Fatalf("MN did not recover to a new cell: %v", b.mn.ServingCell())
	}
	// Buffered packets were drained after reattach; allow a small number
	// of losses for packets in flight at the exact detach instant.
	if got := len(b.mnGot); got < 8 {
		t.Fatalf("delivered %d/10 around outage (buffered=%d drained=%d discards=%d)",
			got, b.stats.Buffered.Value(), b.stats.Drained.Value(), b.stats.BufferDiscards.Value())
	}
}
