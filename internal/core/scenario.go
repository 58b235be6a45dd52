package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/cellularip"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/mobileip"
	"repro/internal/mobility"
	"repro/internal/multitier"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/rsmc"
	"repro/internal/simtime"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Result is one completed scenario run.
type Result struct {
	Config   Config
	Registry *metrics.Registry
	Summary  Summary
	// Trace is the observability trace when Config.Obs armed one; nil
	// otherwise.
	Trace *obs.Trace
}

// Summary condenses the metrics every experiment compares.
type Summary struct {
	Sent           uint64
	Delivered      uint64
	Dropped        uint64
	LossRate       float64
	MeanLatency    time.Duration
	P95Latency     time.Duration
	Handoffs       uint64
	SignalingMsgs  uint64
	SignalingBytes uint64
}

// String renders the summary as one comparison row. A NaN or infinite
// loss rate (possible only in hand-assembled summaries — summarize
// guards the division) renders as zero so rows stay parseable.
func (s Summary) String() string {
	loss := s.LossRate
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		loss = 0
	}
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d loss=%.3f%% mean=%v p95=%v handoffs=%d signaling=%d msgs/%d B",
		s.Sent, s.Delivered, s.Dropped, 100*loss,
		s.MeanLatency.Round(time.Microsecond), s.P95Latency.Round(time.Microsecond),
		s.Handoffs, s.SignalingMsgs, s.SignalingBytes)
}

const (
	wiredDelay = 5 * time.Millisecond
	haIP       = "172.16.0.1"
	cnIP       = "192.0.2.10"
)

// homeNet is the HA prefix every MN's home address sits in.
var homeNet = addr.MustParsePrefix("172.16.0.0/16")

// scenario is the shared scaffold each scheme builds on.
type scenario struct {
	cfg   Config
	sched *simtime.Scheduler
	rng   *simtime.Rand
	net   *netsim.Network
	top   *topology.Topology
	reg   *metrics.Registry
	lat   *latencyTracker
	acct  *metrics.LossAccount

	inet       *netsim.Node
	inetRouter *netsim.StaticRouter
	cn         *netsim.Node
	cnRouter   *netsim.StaticRouter

	models   []mobility.Model
	handoffs *metrics.Counter

	// drivers holds one measurement pipeline per MN and slots their
	// measurements (see measure.go); measureWorkers > 1 turns on the
	// measurement workers, which pipe runs while the scheduler does.
	drivers        []measureDriver
	slots          []measureSlot
	measureWorkers int
	pipe           *measurePipe

	// fleet is the per-run resolution of cfg.Fleet (nil when unset).
	fleet *fleetState
	// arena is the run's private packet allocator (nil = global pool).
	arena *packet.Arena
	// sch is the built scheme every optional layer installs against
	// (see scheme.go).
	sch scheme
	// monitor is the SLO monitor installControl arms (nil keeps the
	// sampling tick a pure SampleAll).
	monitor *obs.Monitor
	// degradeState is non-nil only when cfg.Degrade is set; it exists
	// before the scheme builder so startTraffic can collect the video
	// generators the ladder adapts (see degrade.go).
	degradeState *degradeState

	// hotMicros/hotArena cache the hotspot workload's target cells: the
	// first root's micro footprint (see modelFor).
	hotMicros []*topology.Cell
	hotArena  geo.Rect

	// trace is non-nil only when cfg.Obs is set (see obs.go). handoffAt
	// tracks each MN's pending handoff-span start (-1 = none) so the
	// first delivered packet after a handoff closes the span; pktN and
	// pktEvery drive the every-Nth packet lifecycle sampling.
	trace     *obs.Trace
	handoffAt []time.Duration
	pktN      uint64
	pktEvery  uint64
}

// Run executes one scenario and returns its results.
func Run(cfg Config) (*Result, error) {
	s, err := newScenario(cfg)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

// newScenario validates cfg and builds the scenario ready to run: the
// topology, network, mobility, scheme and every optional layer.
func newScenario(cfg Config) (*scenario, error) {
	if cfg.Duration <= 0 || cfg.NumMNs <= 0 {
		return nil, fmt.Errorf("%w: duration %v, %d MNs", ErrBadConfig, cfg.Duration, cfg.NumMNs)
	}
	if cfg.MeasureInterval < 0 || cfg.MeasureWorkers < 0 {
		return nil, fmt.Errorf("%w: measure interval %v, %d measure workers",
			ErrBadConfig, cfg.MeasureInterval, cfg.MeasureWorkers)
	}
	if cfg.MeasureInterval == 0 {
		cfg.MeasureInterval = 100 * time.Millisecond
	}
	if cfg.TableTTL < 0 || cfg.SemisoftDelay < 0 {
		return nil, fmt.Errorf("%w: table TTL %v, semisoft delay %v", ErrBadConfig, cfg.TableTTL, cfg.SemisoftDelay)
	}
	// An unknown kind would otherwise fall through modelFor's default
	// case and silently simulate the shuttle; empty stays the documented
	// shuttle default. A speed must be finite and non-negative: at NaN or
	// +Inf m/s a model never finishes a move. Fleet runs ignore the
	// homogeneous kind and speed entirely.
	if cfg.Fleet == nil && cfg.Mobility != "" && !validMobilityKind(cfg.Mobility) {
		return nil, fmt.Errorf("%w: unknown mobility %q", ErrBadConfig, cfg.Mobility)
	}
	if cfg.Fleet == nil && (!(cfg.SpeedMPS >= 0) || math.IsInf(cfg.SpeedMPS, 1)) { // !(>=0) catches NaN too
		return nil, fmt.Errorf("%w: speed %v m/s", ErrBadConfig, cfg.SpeedMPS)
	}
	if cfg.Capacity != nil {
		// A dimensioned run: the plan's sized grid replaces whatever
		// fixed layout the config carried.
		cfg.Topology = cfg.Capacity.Topology
	}
	if cfg.Topology.Roots == 0 {
		cfg.Topology = topology.DefaultConfig()
	}
	top, err := topology.Build(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}

	s := &scenario{
		cfg:   cfg,
		sched: simtime.NewScheduler(),
		rng:   simtime.NewRand(cfg.Seed),
		top:   top,
		reg:   metrics.NewRegistry(),
	}
	s.net = netsim.New(s.sched, s.rng)
	s.buildObs()
	s.lat = newLatencyTracker(s.reg)
	s.acct = s.reg.Account("data.flows")
	fobs := newFlowObserver(s.reg)
	fobs.trace = s.trace
	fobs.sched = s.sched
	s.net.SetObserver(fobs)
	s.handoffs = s.reg.Counter("handoffs")
	if cfg.PacketArena {
		s.arena = packet.NewArena()
	}
	if err := s.buildFleet(); err != nil {
		return nil, err
	}
	if s.fleet != nil {
		fobs.fleetOf = s.fleet.breakdownForFlow
	}

	s.inet = s.net.NewNode("inet")
	s.inetRouter = netsim.NewStaticRouter(s.inet)
	s.cn = s.net.NewNode("cn")
	s.cn.AddAddr(addr.MustParse(cnIP))
	s.cnRouter = netsim.NewStaticRouter(s.cn)
	lCN := s.net.Connect(s.inet, s.cn, netsim.LinkConfig{Delay: wiredDelay})
	s.inetRouter.AddRoute(addr.MustParsePrefix("192.0.2.0/24"), lCN)
	s.cnRouter.Default = lCN

	s.buildMobility()
	s.drivers = make([]measureDriver, cfg.NumMNs)
	slots := cfg.NumMNs
	if cfg.MeasureWorkers > 1 {
		slots *= measureRing
	}
	s.slots = make([]measureSlot, slots)
	s.measureWorkers = cfg.MeasureWorkers
	if err := s.validateControl(); err != nil {
		return nil, err
	}
	if s.degradeState, err = s.newDegradeState(); err != nil {
		return nil, err
	}

	switch cfg.Scheme {
	case SchemeMobileIP:
		s.sch, err = s.runMobileIP()
	case SchemeCellularIPHard, SchemeCellularIPSemisoft:
		s.sch, err = s.runCellularIP(cfg.Scheme == SchemeCellularIPSemisoft)
	case SchemeMultiTier:
		s.sch, err = s.runMultiTier()
	default:
		err = fmt.Errorf("%w: %q", ErrBadScheme, cfg.Scheme)
	}
	if err != nil {
		return nil, err
	}
	if err := s.installFaults(); err != nil {
		return nil, err
	}
	s.installObsProbes()
	if err := s.installControl(); err != nil {
		return nil, err
	}
	if err := s.installDegrade(); err != nil {
		return nil, err
	}

	return s, nil
}

// run executes the scenario to its deadline. No measurement worker
// outlives it: the workers start with the run and are joined at the
// deadline.
func (s *scenario) run() *Result {
	s.startPipe()
	s.sched.RunUntil(s.cfg.Duration)
	s.stopPipe()
	return &Result{Config: s.cfg, Registry: s.reg, Summary: s.summarize(), Trace: s.trace}
}

// buildMobility creates one model per MN: the homogeneous config kind,
// or each MN's assigned fleet profile when a fleet is configured.
func (s *scenario) buildMobility() {
	rng := s.rng.Fork()
	if s.fleet != nil {
		s.buildFleetMobility(rng)
		return
	}
	micros := s.top.CellsOfTier(topology.TierMicro)
	macros := s.top.CellsOfTier(topology.TierMacro)
	s.models = make([]mobility.Model, s.cfg.NumMNs)
	for i := range s.models {
		s.models[i] = s.modelFor(s.cfg.Mobility, s.cfg.SpeedMPS, i, micros, macros, rng)
	}
}

// modelFor builds one MN's trajectory. The rng draw sequence (one Fork
// per waypoint/manhattan model, in MN order) is shared by the
// homogeneous and fleet paths and pinned by the golden suite.
func (s *scenario) modelFor(kind MobilityKind, speedMPS float64, i int, micros, macros []*topology.Cell, rng *simtime.Rand) mobility.Model {
	switch kind {
	case MobilityWaypoint:
		return mobility.NewWaypoint(mobility.WaypointConfig{
			Arena:    s.top.Arena,
			MinSpeed: speedMPS * 0.5,
			MaxSpeed: speedMPS * 1.5,
			MaxPause: 5 * time.Second,
			Start:    micros[i%len(micros)].Pos,
		}, rng.Fork())
	case MobilityManhattan:
		return mobility.NewManhattan(mobility.ManhattanConfig{
			Arena:   s.top.Arena,
			Spacing: 200,
			Speed:   speedMPS,
			Start:   micros[i%len(micros)].Pos,
		}, rng.Fork())
	case MobilityStatic:
		return mobility.NewStationary(micros[i%len(micros)].Pos)
	case MobilityHotspot:
		hot, arena := s.hotspot(micros)
		return mobility.NewWaypoint(mobility.WaypointConfig{
			Arena:    arena,
			MinSpeed: speedMPS * 0.5,
			MaxSpeed: speedMPS * 1.5,
			MaxPause: 5 * time.Second,
			Start:    hot[i%len(hot)].Pos,
		}, rng.Fork())
	case MobilityShuttleDomains:
		a := macros[i%len(macros)]
		b := macros[(i+1)%len(macros)]
		return mobility.NewPingPong(a.Pos, b.Pos, speedMPS)
	case MobilityShuttleTier:
		m := micros[i%len(micros)]
		macro := s.top.Cell(s.top.DomainRoot(m.ID))
		return mobility.NewPingPong(m.Pos, macro.Pos, speedMPS)
	default: // MobilityShuttle
		a := micros[i%len(micros)]
		b := micros[(i+1)%len(micros)]
		return mobility.NewPingPong(a.Pos, b.Pos, speedMPS)
	}
}

// hotspot resolves (and caches) the hotspot workload's footprint: the
// micro cells beneath the first root, and their centres' bounding box
// padded by half the smallest micro range — a crowd arena strictly
// inside one root's grid, on a topology dimensioned for a uniform
// spread. Falls back to all micros on a grid whose first root has none.
func (s *scenario) hotspot(micros []*topology.Cell) ([]*topology.Cell, geo.Rect) {
	if s.hotMicros != nil {
		return s.hotMicros, s.hotArena
	}
	roots := s.top.CellsOfTier(topology.TierRoot)
	hotRoot := roots[0].ID
	var hot []*topology.Cell
	for _, c := range micros {
		if s.top.RootOf(c.ID) == hotRoot {
			hot = append(hot, c)
		}
	}
	if len(hot) == 0 {
		hot = micros
	}
	r := geo.Rect{Min: hot[0].Pos, Max: hot[0].Pos}
	pad := hot[0].Radio.MaxRange
	for _, c := range hot {
		r.Min.X = math.Min(r.Min.X, c.Pos.X)
		r.Min.Y = math.Min(r.Min.Y, c.Pos.Y)
		r.Max.X = math.Max(r.Max.X, c.Pos.X)
		r.Max.Y = math.Max(r.Max.Y, c.Pos.Y)
		pad = math.Min(pad, c.Radio.MaxRange)
	}
	pad /= 2
	r.Min = s.top.Arena.Clamp(geo.Point{X: r.Min.X - pad, Y: r.Min.Y - pad})
	r.Max = s.top.Arena.Clamp(geo.Point{X: r.Max.X + pad, Y: r.Max.Y + pad})
	s.hotMicros, s.hotArena = hot, r
	return hot, r
}

// mnHome returns the i-th MN's home address inside the HA prefix.
func mnHome(i int) addr.IP {
	ip, _ := homeNet.Nth(uint32(10 + i))
	return ip
}

// startTraffic wires MN i's downlink generators (its fleet profile's mix,
// or the homogeneous config) toward dst and starts them after a 1 s
// attach grace period. Scale runs draw data packets from the scenario
// arena.
func (s *scenario) startTraffic(i int, dst addr.IP, rng *simtime.Rand) {
	tc := s.trafficFor(i)
	bd := s.breakdown(i)
	alloc := s.dataAlloc()
	sink := func(p *packet.Packet) {
		// Every pktEvery-th data packet is marked for lifecycle tracing
		// (pktEvery is 0 unless Config.Obs arms packet sampling, so the
		// default path takes one predictable branch and nothing else).
		if s.pktEvery > 0 {
			s.pktN++
			if s.pktN%s.pktEvery == 0 {
				p.Flags |= packet.FlagTraced
				s.trace.Emit(s.sched.Now(), obs.KindPacketSent, int32(i), -1, int32(p.FlowID), int64(p.Seq))
			}
		}
		s.acct.OnSent()
		if bd != nil {
			bd.Flows.OnSent()
		}
		s.cnRouter.Forward(p)
	}
	base := uint32(i)*4 + 1
	var gens []traffic.Generator
	if tc.Voice {
		g := traffic.NewVoice(traffic.Flow{ID: base, Src: s.cn.Addr(), Dst: dst}, sink)
		g.Alloc = alloc
		gens = append(gens, g)
	}
	if tc.Video {
		g := traffic.NewVBRVideo(traffic.Flow{ID: base + 1, Src: s.cn.Addr(), Dst: dst},
			traffic.DefaultVideoConfig(), rng.Fork(), sink)
		g.Alloc = alloc
		gens = append(gens, g)
		if ds := s.degradeState; ds != nil && ds.ladder != nil {
			// The ladder rate-adapts every streaming generator in step.
			ds.videos = append(ds.videos, g)
		}
	}
	if tc.DataMeanInterval > 0 {
		g := traffic.NewPoisson(traffic.Flow{ID: base + 2, Src: s.cn.Addr(), Dst: dst, Class: packet.ClassInteractive},
			512, tc.DataMeanInterval, rng.Fork(), sink)
		g.Alloc = alloc
		gens = append(gens, g)
	}
	s.sched.At(time.Second, func() {
		for _, g := range gens {
			g.Start(s.sched)
		}
	})
}

// onDelivered returns MN i's delivery callback: scenario-wide accounting
// plus, under a fleet, the MN's class aggregate.
func (s *scenario) onDelivered(i int) func(p *packet.Packet) {
	bd := s.breakdown(i)
	return func(p *packet.Packet) {
		s.acct.OnDelivered(len(p.Payload))
		s.lat.observe(s.sched.Now(), p)
		if bd != nil {
			bd.Flows.OnDelivered(len(p.Payload))
			bd.Latency.Observe(s.sched.Now() - p.SentAt)
		}
		if s.trace != nil {
			now := s.sched.Now()
			if p.Flags&packet.FlagTraced != 0 {
				s.trace.Emit(now, obs.KindPacketDelivered, int32(i), -1, int32(p.FlowID), int64(now-p.SentAt))
			}
			// The first delivery after a committed handoff closes the
			// trigger → first-delivered-packet span.
			if s.handoffAt[i] >= 0 {
				s.trace.Emit(now, obs.KindHandoffFirstData, int32(i), -1, 0, int64(now-s.handoffAt[i]))
				s.handoffAt[i] = -1
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Scheme: plain Mobile IP (one FA per macro-class cell)

func (s *scenario) runMobileIP() (scheme, error) {
	stats := mobileip.NewStats(s.reg)

	haNode := s.net.NewNode("ha")
	haNode.AddAddr(addr.MustParse(haIP))
	ha := mobileip.NewHomeAgent(haNode, homeNet, stats)
	lHA := s.net.Connect(s.inet, haNode, netsim.LinkConfig{Delay: wiredDelay})
	s.inetRouter.AddRoute(homeNet, lHA)
	ha.Router().Default = lHA

	// AuthEnabled arms MHAE-style registration authentication: one shared
	// mobility security association signs at the MNs and verifies at the
	// HA, with the timestamp-window replay check.
	mnAuth, err := s.mipAuth(ha)
	if err != nil {
		return nil, err
	}

	// One FA per macro-class cell, each on its own wired link.
	fas := make(map[topology.CellID]*mobileip.ForeignAgent)
	for _, c := range s.top.Cells {
		if c.Tier < topology.TierMacro {
			continue
		}
		node := s.net.NewNode("fa-" + c.Name)
		coa, err := c.Prefix.Nth(1)
		if err != nil {
			return nil, fmt.Errorf("fa address: %w", err)
		}
		node.AddAddr(coa)
		fa := mobileip.NewForeignAgent(node, coa, stats)
		fa.AirDelay = c.Radio.AirDelay
		l := s.net.Connect(s.inet, node, netsim.LinkConfig{Delay: wiredDelay})
		s.inetRouter.AddRoute(c.Prefix, l)
		fa.Router().Default = l
		fas[c.ID] = fa
	}

	mns := make([]*mobileip.MobileNode, s.cfg.NumMNs)
	for i := 0; i < s.cfg.NumMNs; i++ {
		home := mnHome(i)
		mnNode := s.net.NewNode(fmt.Sprintf("mn-%d", i))
		cfg := mobileip.DefaultMNConfig()
		if s.cfg.Faults != nil {
			cfg = faultMNConfig(cfg, s.cfg.Duration)
		}
		cfg.AuthCostNS = s.cfg.AuthCPUCostNS
		mn := mobileip.NewMobileNode(mnNode, home, addr.MustParse(haIP), cfg, stats)
		if s.cfg.Faults != nil {
			mn.SetRand(s.rng.Fork()) // retry-jitter stream, fault runs only
		}
		if mnAuth != nil {
			mn.SetAuth(mnAuth)
		}
		mn.SetTrace(s.trace, int32(i))
		mn.OnData = s.onDelivered(i)
		mn.OnLocationSignal = s.signalSink(i)
		mns[i] = mn
		s.startTraffic(i, home, s.rng.Fork())

		s.flatDriver(i, topology.TierMacro, func(c topology.CellID) { mn.MoveTo(fas[c]) })
	}

	return &mipScheme{sched: s.sched, fas: fas, mns: mns}, nil
}

// mipScheme is flat Mobile IP behind the scheme interface. Its stations
// are the FAs of the macro-class cells; micro-tier cells have none.
type mipScheme struct {
	sched *simtime.Scheduler
	fas   map[topology.CellID]*mobileip.ForeignAgent
	mns   []*mobileip.MobileNode
	pacer multitier.RegPacer
}

var mipSignals = signalCounters{
	msgs:   []string{"mip.signaling.messages"},
	bytes:  []string{"mip.signaling.bytes"},
	probes: []string{"mip.signaling.messages", "mip.auth.cpu_ns"},
}

func (m *mipScheme) signalling() signalCounters { return mipSignals }

func (m *mipScheme) stationDown(cell topology.CellID) {
	if fa := m.fas[cell]; fa != nil {
		fa.Node().SetDown(true)
		fa.OrphanVisitors()
	}
}

func (m *mipScheme) stationUp(cell topology.CellID) {
	fa := m.fas[cell]
	if fa == nil {
		return
	}
	fa.Node().SetDown(false)
	// The re-registration storm: every MN parked on the failed FA
	// re-attaches and re-registers at the recovery instant — paced
	// through the breaker when one is armed, a burst otherwise.
	for _, mn := range m.mns {
		if mn.CurrentAgent() == fa {
			m.pace(mn.Reregister)
		}
	}
}

// pace routes one registration send through the pacer; without one the
// send happens inline.
func (m *mipScheme) pace(send func()) {
	if m.pacer != nil {
		if delay := m.pacer.Admit(m.sched.Now()); delay > 0 {
			m.sched.AfterFIFO(delay, func() {
				m.pacer.Sent(m.sched.Now())
				send()
			})
			return
		}
	}
	send()
}

func (m *mipScheme) airLoss(cell topology.CellID) (float64, bool) {
	if fa := m.fas[cell]; fa != nil {
		return fa.AirLoss, true
	}
	return 0, false
}

func (m *mipScheme) setAirLoss(cell topology.CellID, p float64) { m.fas[cell].AirLoss = p }

func (m *mipScheme) registered(i int) bool { return m.mns[i].Registered() }

func (m *mipScheme) setRegPacer(p multitier.RegPacer) { m.pacer = p }

// prePage maps directly onto forced re-registration of unregistered MNs.
func (m *mipScheme) prePage() int {
	n := 0
	for _, mn := range m.mns {
		if mn.Registered() {
			continue
		}
		mn.Reregister()
		n++
	}
	return n
}

// mipAuth builds the shared registration authenticator when
// cfg.AuthEnabled is set, arming HA-side verification with the replay
// window. It returns nil (and arms nothing) otherwise.
func (s *scenario) mipAuth(ha *mobileip.HomeAgent) (*auth.Authenticator, error) {
	if !s.cfg.AuthEnabled {
		return nil, nil
	}
	a, err := auth.New([]byte("mip-registration-secret"))
	if err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	ha.SetAuth(a, mipAuthWindow)
	ha.SetAuthCost(s.cfg.AuthCPUCostNS)
	return a, nil
}

// mipAuthWindow is the HA's replay-protection timestamp window: signed
// registrations whose nonce (virtual send instant) is older than this are
// rejected as replays (RFC 5944 §5.7 style).
const mipAuthWindow = 3 * time.Second

// ---------------------------------------------------------------------------
// Scheme: flat Cellular IP over every cell

func (s *scenario) runCellularIP(semisoft bool) (scheme, error) {
	stats := cellularip.NewStats(s.reg)
	cipCfg := cellularip.DefaultConfig()
	if s.cfg.SemisoftDelay > 0 {
		cipCfg.SemisoftDelay = s.cfg.SemisoftDelay
	}

	// The first root is the gateway; further roots chain beneath it so a
	// single tree spans the arena.
	roots := s.top.CellsOfTier(topology.TierRoot)
	gwCell := roots[0]
	served := gwCell.Prefix
	stations := make(map[topology.CellID]*cellularip.BaseStation, len(s.top.Cells))
	for _, c := range s.top.Cells {
		node := s.net.NewNode("cip-" + c.Name)
		if ip, err := c.Prefix.Nth(1); err == nil {
			node.AddAddr(ip)
		}
		stations[c.ID] = cellularip.NewBaseStation(node, cipCfg, stats)
	}
	linkCfg := netsim.LinkConfig{Delay: 2 * time.Millisecond}
	for _, c := range s.top.Cells {
		switch {
		case c.Parent != topology.NoCell:
			stations[c.Parent].ConnectChild(stations[c.ID], linkCfg)
		case c.ID != gwCell.ID:
			stations[gwCell.ID].ConnectChild(stations[c.ID], linkCfg)
		}
	}
	gw := stations[gwCell.ID]
	lGW := s.net.Connect(s.inet, gw.Node(), netsim.LinkConfig{Delay: wiredDelay})
	s.inetRouter.AddRoute(served, lGW)

	byAddr := make(map[addr.IP]*metrics.Breakdown, s.cfg.NumMNs)
	ips := make([]addr.IP, s.cfg.NumMNs)
	for i := 0; i < s.cfg.NumMNs; i++ {
		ip, err := served.Nth(uint32(1000 + i))
		if err != nil {
			return nil, fmt.Errorf("cip host address: %w", err)
		}
		ips[i] = ip
		node := s.net.NewNode(fmt.Sprintf("mn-%d", i))
		host := cellularip.NewMobileHost(node, ip, cipCfg, stats)
		host.SetTrace(s.trace, int32(i))
		host.OnData = s.onDelivered(i)
		host.OnLocationSignal = s.signalSink(i)
		if bd := s.breakdown(i); bd != nil {
			byAddr[ip] = bd
		}
		s.startTraffic(i, ip, s.rng.Fork())

		s.flatDriver(i, topology.TierPico, func(c topology.CellID) {
			if semisoft {
				host.AttachSemisoft(stations[c])
			} else {
				host.AttachHard(stations[c])
			}
		})
	}
	stats.PageSink = s.pageSink(byAddr)

	return &cipScheme{stations: stations, gw: gw, ips: ips}, nil
}

// cipScheme is flat Cellular IP behind the scheme interface: one base
// station per cell, no registration path to pace and no per-root
// budgets.
type cipScheme struct {
	stations map[topology.CellID]*cellularip.BaseStation
	gw       *cellularip.BaseStation
	ips      []addr.IP
}

var cipSignals = signalCounters{
	msgs:   []string{"cip.route_updates", "cip.paging_updates"},
	bytes:  []string{"cip.control_bytes"},
	probes: []string{"cip.route_updates"},
}

func (c *cipScheme) signalling() signalCounters { return cipSignals }

func (c *cipScheme) stationDown(cell topology.CellID) { c.stations[cell].Fail() }

func (c *cipScheme) stationUp(cell topology.CellID) { c.stations[cell].Recover() }

func (c *cipScheme) airLoss(cell topology.CellID) (float64, bool) {
	return c.stations[cell].Config().AirLoss, true
}

func (c *cipScheme) setAirLoss(cell topology.CellID, p float64) { c.stations[cell].SetAirLoss(p) }

// registered on Cellular IP means the gateway can still route (or page)
// the host — exactly the state outages wipe.
func (c *cipScheme) registered(i int) bool { return c.gw.HasRoute(c.ips[i]) }

// ---------------------------------------------------------------------------
// Scheme: the paper's multi-tier architecture with RSMC

func (s *scenario) runMultiTier() (scheme, error) {
	stats := multitier.NewStats(s.reg)
	dir := multitier.NewDirectory()

	stationCfg := func(tier topology.Tier) multitier.StationConfig {
		c := multitier.DefaultStationConfig(tier)
		if s.cfg.Capacity != nil {
			// Dimensioned arena: the plan's demand-derived budgets
			// replace the per-tier defaults. Explicit GuardChannels
			// overrides below still win, like on a fixed topology.
			if b, ok := s.cfg.Capacity.Budget(tier); ok {
				c.Channels, c.GuardChannels, c.CapacityBPS = b.Channels, b.GuardChannels, b.CapacityBPS
			}
		}
		c.ResourceSwitching = s.cfg.ResourceSwitching
		if s.cfg.GuardChannels >= 0 {
			c.GuardChannels = s.cfg.GuardChannels
		}
		if s.cfg.TableTTL > 0 {
			c.TableTTL = s.cfg.TableTTL
		}
		return c
	}
	fcfg := multitier.DefaultFabricConfig()
	fcfg.StationConfigFor = stationCfg
	fab, err := multitier.BuildFabric(s.net, s.top, fcfg, dir, stats)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}

	haNode := s.net.NewNode("ha")
	haNode.AddAddr(addr.MustParse(haIP))
	ha := mobileip.NewHomeAgent(haNode, homeNet, mobileip.NewStats(s.reg))
	lHA := s.net.Connect(s.inet, haNode, netsim.LinkConfig{Delay: wiredDelay})
	s.inetRouter.AddRoute(homeNet, lHA)
	ha.Router().Default = lHA

	// AuthEnabled also signs the roots' anchor registrations toward the
	// HA — the Mobile IP leg of the multi-tier architecture carries the
	// same MHAE cost and replay protection as the flat scheme.
	anchorAuth, err := s.mipAuth(ha)
	if err != nil {
		return nil, err
	}

	for _, root := range fab.Roots {
		l := s.net.Connect(s.inet, root.Node(), netsim.LinkConfig{Delay: wiredDelay})
		s.inetRouter.AddRoute(root.Cell().Prefix, l)
		fab.External(root.Cell().ID).Default = l
		if anchorAuth != nil {
			root.SetAnchorAuth(anchorAuth)
		}
		if s.trace != nil {
			// Per-root occupancy gauges, sampled on the obs cadence (the
			// streaming tier.occupancy.* samples stay event-driven).
			s.trace.AddProbe("occupancy.root."+root.Cell().Name, root.Utilization)
		}
	}

	// One RSMC per domain; optionally armed with an authenticator shared
	// through the directory.
	for _, dom := range s.top.Domains {
		head := fab.Station(dom.Root)
		var a *auth.Authenticator
		if s.cfg.AuthEnabled {
			var err error
			a, err = auth.New([]byte(fmt.Sprintf("domain-%d-secret", dom.ID)))
			if err != nil {
				return nil, fmt.Errorf("auth: %w", err)
			}
			dir.SetDomainAuth(dom.ID, a)
		}
		ctrl := rsmc.New(head, a, rsmc.NewStats(s.reg, dom.ID))
		// Every station of the domain authenticates against the domain
		// RSMC.
		for _, cid := range dom.Cells {
			fab.Station(cid).SetController(ctrl)
		}
	}

	pol := multitier.DefaultPolicy()
	byAddr := make(map[addr.IP]*metrics.Breakdown, s.cfg.NumMNs)
	mobs := make([]*multitier.Mobile, s.cfg.NumMNs)
	for i := 0; i < s.cfg.NumMNs; i++ {
		home := mnHome(i)
		prof := &multitier.Profile{
			Home:      home,
			HomeAgent: addr.MustParse(haIP),
			DemandBPS: s.trafficFor(i).DemandBPS(),
			Class:     classFor(s.trafficFor(i)),
		}
		dir.AddProfile(prof)
		node := s.net.NewNode(fmt.Sprintf("mn-%d", i))
		mob := multitier.NewMobile(node, prof, s.top, dir, pol, multitier.DefaultMobileConfig(), stats)
		mob.SetTrace(s.trace, int32(i))
		mob.OnData = s.onDelivered(i)
		mob.OnHandoff = func(multitier.HandoffKind, time.Duration) { s.noteHandoff(i) }
		mob.OnLocationSignal = s.signalSink(i)
		mobs[i] = mob
		if bd := s.breakdown(i); bd != nil {
			byAddr[home] = bd
		}
		s.startTraffic(i, home, s.rng.Fork())
		s.driver(i, topology.TierPico, mob.EvaluateSignals)
	}
	stats.PageSink = s.pageSink(byAddr)

	return newTierScheme(s.top, fab, mobs), nil
}

// tierScheme is the multi-tier architecture behind the scheme interface,
// with every optional lever: pre-paging, paced root anchors and per-root
// admission budgets.
type tierScheme struct {
	top   *topology.Topology
	fab   *multitier.Fabric
	mobs  []*multitier.Mobile
	names []string
	// groups[ri][t] are root ri's stations of tier TierPico+t, in
	// cell-id order: shifts pair the hot root's k-th station of a tier
	// with the donor's k-th, so a uniform grid trades budget
	// symmetrically, and every lever stays deterministic.
	groups [][][]*multitier.Station
	// moves[ri] records the budget shifted toward root ri, undone by
	// revert.
	moves [][]budgetMove
}

type budgetMove struct {
	from, to *multitier.Station
	ch       int
	bps      float64
}

func newTierScheme(top *topology.Topology, fab *multitier.Fabric, mobs []*multitier.Mobile) *tierScheme {
	t := &tierScheme{top: top, fab: fab, mobs: mobs,
		names:  make([]string, len(fab.Roots)),
		groups: make([][][]*multitier.Station, len(fab.Roots)),
		moves:  make([][]budgetMove, len(fab.Roots)),
	}
	rootIdx := make(map[topology.CellID]int, len(fab.Roots))
	for ri, root := range fab.Roots {
		t.names[ri] = root.Cell().Name
		rootIdx[root.Cell().ID] = ri
		t.groups[ri] = make([][]*multitier.Station, topology.TierRoot-topology.TierPico+1)
	}
	for _, c := range top.Cells {
		g := t.groups[rootIdx[top.RootOf(c.ID)]]
		g[c.Tier-topology.TierPico] = append(g[c.Tier-topology.TierPico], fab.Station(c.ID))
	}
	return t
}

var tierSignals = signalCounters{
	msgs:   []string{"tier.location_msgs", "tier.update_msgs", "tier.delete_msgs", "mip.signaling.messages"},
	bytes:  []string{"tier.control_bytes", "mip.signaling.bytes"},
	probes: []string{"tier.location_msgs", "mip.auth.cpu_ns"},
}

func (t *tierScheme) signalling() signalCounters { return tierSignals }

func (t *tierScheme) stationDown(cell topology.CellID) { t.fab.Station(cell).Fail() }

func (t *tierScheme) stationUp(cell topology.CellID) { t.fab.Station(cell).Recover() }

func (t *tierScheme) airLoss(cell topology.CellID) (float64, bool) {
	return t.fab.Station(cell).Config().AirLoss, true
}

func (t *tierScheme) setAirLoss(cell topology.CellID, p float64) { t.fab.Station(cell).SetAirLoss(p) }

// registered on multi-tier means some root anchors the MN with the HA —
// the binding a root outage wipes and the periodic location refreshes
// rebuild.
func (t *tierScheme) registered(i int) bool {
	home := mnHome(i)
	for _, root := range t.fab.Roots {
		if root.AnchorRegistered(home) {
			return true
		}
	}
	return false
}

// prePage pulls every unregistered MN's location refresh forward.
func (t *tierScheme) prePage() int {
	n := 0
	for i, mob := range t.mobs {
		if !t.registered(i) && mob.ForceLocationRefresh() {
			n++
		}
	}
	return n
}

func (t *tierScheme) setRegPacer(p multitier.RegPacer) {
	for _, root := range t.fab.Roots {
		root.SetRegPacer(p)
	}
}

func (t *tierScheme) setDegrade(h *multitier.DegradeHooks) {
	for _, c := range t.top.Cells {
		t.fab.Station(c.ID).SetDegrade(h)
	}
}

func (t *tierScheme) rootNames() []string { return t.names }

// microOccupancy is the aggregate channel occupancy of root ri's micro
// stations — the tier slow traffic camps on, which saturates long before
// the root's own umbrella pool sees a single session (picos are left
// out: their tight radii keep most of them out of range of any crowd,
// so they would only dilute the gauge). ok is false when the root has
// no micro channels.
func (t *tierScheme) microOccupancy(ri int) (float64, bool) {
	used, total := 0, 0
	for _, st := range t.groups[ri][topology.TierMicro-topology.TierPico] {
		used += st.Resources().Channels.InUse()
		total += st.Resources().Channels.Total()
	}
	if total == 0 {
		return 0, false
	}
	return float64(used) / float64(total), true
}

func (t *tierScheme) shift(hot, donor int, frac float64) int {
	total := 0
	for ti := range t.groups[hot] {
		hs, ds := t.groups[hot][ti], t.groups[donor][ti]
		for k := 0; k < min(len(hs), len(ds)); k++ {
			dres, hres := ds[k].Resources(), hs[k].Resources()
			wantCh := int(frac * float64(dres.Channels.Total()))
			wantBPS := frac * dres.Bandwidth.Capacity()
			chMoved := -dres.Channels.Grow(-wantCh)
			bpsMoved := -dres.Bandwidth.Grow(-wantBPS)
			if chMoved <= 0 && bpsMoved <= 0 {
				continue
			}
			hres.Channels.Grow(chMoved)
			hres.Bandwidth.Grow(bpsMoved)
			t.moves[hot] = append(t.moves[hot], budgetMove{from: ds[k], to: hs[k], ch: chMoved, bps: bpsMoved})
			total += chMoved
		}
	}
	return total
}

func (t *tierScheme) revert(hot int) int {
	total := 0
	ms := t.moves[hot]
	for k := len(ms) - 1; k >= 0; k-- {
		m := ms[k]
		back := -m.to.Resources().Channels.Grow(-m.ch)
		m.from.Resources().Channels.Grow(back)
		bpsBack := -m.to.Resources().Bandwidth.Grow(-m.bps)
		m.from.Resources().Bandwidth.Grow(bpsBack)
		total += back
	}
	t.moves[hot] = ms[:0]
	return total
}

// summarize condenses the registry into the comparison row. LossRate is
// the undelivered fraction (1 - delivered/sent): bicast and paging-flood
// clones mean raw drop counts can exceed sends, but each sent packet is
// delivered at most once (receiver dedup), so undelivered is the honest
// loss measure.
func (s *scenario) summarize() Summary {
	sum := Summary{
		Sent:      s.acct.Sent,
		Delivered: s.acct.Delivered,
		Dropped:   s.acct.Dropped(),
		Handoffs:  s.reg.Counter("handoffs").Value(),
	}
	// Zero-send scenarios (signalling-only populations) have no loss by
	// definition; the guard keeps LossRate off the 0/0 NaN path. Receiver
	// dedup can only push delivered up to sent, but clamp anyway so a
	// counting bug can never surface as a negative rate.
	if sum.Sent > 0 {
		sum.LossRate = 1 - float64(sum.Delivered)/float64(sum.Sent)
		if sum.LossRate < 0 {
			sum.LossRate = 0
		}
	}
	if h, ok := s.latencyAll(); ok && h.Count() > 0 {
		sum.MeanLatency = h.Mean()
		sum.P95Latency = h.Quantile(0.95)
	}
	sig := s.sch.signalling()
	for _, name := range sig.msgs {
		sum.SignalingMsgs += s.reg.Counter(name).Value()
	}
	for _, name := range sig.bytes {
		sum.SignalingBytes += s.reg.Counter(name).Value()
	}
	return sum
}

// latencyAll merges the per-class latency histograms.
func (s *scenario) latencyAll() (*metrics.Histogram, bool) {
	merged := &metrics.Histogram{}
	found := false
	for _, class := range []packet.Class{packet.ClassConversational, packet.ClassStreaming, packet.ClassInteractive, packet.ClassBackground} {
		name := "e2e.latency." + class.String()
		for _, n := range s.reg.Names() {
			if n == name {
				merged.Merge(s.reg.Histogram(name))
				found = true
			}
		}
	}
	return merged, found
}
