package multitier

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// MobileConfig tunes the MN-side protocol behaviour.
type MobileConfig struct {
	// LocationInterval is the active-state Location Message period
	// (§3.1: "MNs need to send a 'Location Message' … periodical").
	LocationInterval time.Duration
	// PagingInterval is the idle-state period.
	PagingInterval time.Duration
	// ActiveTimeout demotes an MN to idle after this long without data.
	ActiveTimeout time.Duration
	// HandoffTimeout abandons an unanswered handoff request.
	HandoffTimeout time.Duration
	// AirDelay and AirLoss characterise the MN's uplink. AirDelay must
	// be shorter than HandoffTimeout: every handoff request is sent from
	// one per-MN buffer, and a request packet is consumed at its target
	// station (decoded, never re-wrapped) one AirDelay after it is sent,
	// while the next request waits for a reply or for HandoffTimeout.
	AirDelay time.Duration
	AirLoss  float64
}

// DefaultMobileConfig matches the station defaults.
func DefaultMobileConfig() MobileConfig {
	return MobileConfig{
		LocationInterval: time.Second,
		PagingInterval:   10 * time.Second,
		ActiveTimeout:    2 * time.Second,
		HandoffTimeout:   300 * time.Millisecond,
		AirDelay:         4 * time.Millisecond,
	}
}

// pendingHandoff tracks one in-flight handoff request. A Mobile makes
// one at its first request and reuses it request after request.
type pendingHandoff struct {
	target  topology.CellID
	seq     uint32
	sentAt  time.Duration
	timeout simtime.Event
	// wire holds the request's bytes (see MobileConfig.AirDelay).
	wire [handoffReqSize]byte
}

// Mobile is the multi-tier mobile node: it runs the paper's MN-controlled
// handoff (decide by speed/signal/resources, request, commit with Update +
// Delete Location Messages) and the periodic location refresh.
type Mobile struct {
	node    *netsim.Node
	profile *Profile
	top     *topology.Topology
	dir     *Directory
	pol     Policy
	cfg     MobileConfig
	sched   *simtime.Scheduler
	stats   *Stats

	servingCell topology.CellID
	serving     *Station
	// pending is rec while a handoff request is in flight, else nil.
	pending   *pendingHandoff
	rec       *pendingHandoff
	seq       uint32
	nonce     uint64
	state     HostState
	locTicker *simtime.Ticker
	idleTimer simtime.Event
	dedupe    packet.Dedup

	// Per-MN scratch for the decision tick, so steady-state
	// EvaluateSignals calls allocate nothing.
	decScratch decisionScratch
	probeFn    ResourceProbe // bound once in NewMobile
	// goIdleFn and handoffTimeoutFn are bound once so the per-packet
	// idle timer re-arm and the per-request timeout never allocate a
	// method-value closure; locTicker is made at the first attach and
	// Reset at every restart after it.
	goIdleFn         func()
	handoffTimeoutFn func()

	// trace receives handoff-span events when armed; nil is inert.
	trace      *obs.Trace
	traceActor int32

	// OnData receives every unique data packet delivered to the MN.
	OnData func(p *packet.Packet)
	// OnHandoff is told about every committed handoff.
	OnHandoff func(kind HandoffKind, latency time.Duration)
	// OnDetached is told when the MN loses coverage entirely.
	OnDetached func()
	// OnLocationSignal is told about every location-management message
	// this MN originates (Location Message refreshes and handoff Update
	// Location Messages) — the per-profile signalling attribution hook.
	OnLocationSignal func()
}

// HostState mirrors the Cellular IP active/idle notion at the multi-tier
// level.
type HostState int

// States.
const (
	StateActive HostState = iota + 1
	StateIdle
)

var _ netsim.Handler = (*Mobile)(nil)

// NewMobile attaches multi-tier MN behaviour to node. The profile must
// already be in the directory. stats must be non-nil; NewStats(nil)
// gives a private registry.
func NewMobile(node *netsim.Node, profile *Profile, top *topology.Topology, dir *Directory,
	pol Policy, cfg MobileConfig, stats *Stats) *Mobile {

	m := &Mobile{
		node:        node,
		profile:     profile,
		top:         top,
		dir:         dir,
		pol:         pol,
		cfg:         cfg,
		sched:       node.Network().Scheduler(),
		stats:       stats,
		servingCell: topology.NoCell,
		state:       StateIdle,
	}
	node.AddAddr(profile.Home)
	node.SetHandler(m)
	m.probeFn = m.probeResources
	m.goIdleFn = m.goIdle
	m.handoffTimeoutFn = m.handoffTimedOut
	return m
}

// SetTrace arms handoff-span trace emission (request, commit, coverage
// loss) attributed to the given actor index. A nil trace stays inert.
func (m *Mobile) SetTrace(tr *obs.Trace, actor int32) {
	m.trace = tr
	m.traceActor = actor
}

// probeResources is the decision engine's third factor: can the candidate
// cell admit this MN's flows?
func (m *Mobile) probeResources(cell topology.CellID, handoff bool) bool {
	st, err := m.dir.StationFor(cell)
	if err != nil {
		return false
	}
	return st.CanAdmit(m.profile.DemandBPS, handoff)
}

// EvaluateSignals runs one decision round on the MN's measured
// signals: run the three-factor engine and start a handoff when the
// target differs from the serving cell. The scheme driver measures on
// its cadence and calls this with the result; it mutates protocol state
// and must run on the simulation goroutine at the MN's own tick.
//
//mmlint:noalloc
func (m *Mobile) EvaluateSignals(speedMPS float64, signals []radio.Signal) {
	target := m.decScratch.choose(m.top, m.servingCell, signals, speedMPS, m.probeFn, m.pol)

	if target == topology.NoCell {
		if m.serving != nil && !m.stillCovered(signals) {
			m.loseCoverage()
		}
		return
	}
	if target == m.servingCell {
		return
	}
	if m.pending != nil {
		return // one handoff at a time
	}
	m.requestHandoff(target, speedMPS)
}

// stillCovered reports whether the serving cell remains nominally usable.
func (m *Mobile) stillCovered(signals []radio.Signal) bool {
	for _, s := range signals {
		if topology.CellID(s.Cell) == m.servingCell {
			return s.InRange && s.RSSIDBm >= m.pol.Selector.MinRSSIDBm
		}
	}
	return false
}

// loseCoverage models radio loss with no successor cell: the air link
// breaks silently; the old station's resource switching buffers downlink
// packets until the MN reappears somewhere.
func (m *Mobile) loseCoverage() {
	if m.serving != nil {
		m.serving.DetachMN(m.profile.Home)
		m.serving.ReleaseSession(m.profile.Home)
	}
	m.serving = nil
	m.servingCell = topology.NoCell
	m.stopTickers()
	m.trace.Emit(m.sched.Now(), obs.KindHandoffDetach, m.traceActor, -1, 0, 0)
	if m.OnDetached != nil {
		m.OnDetached()
	}
}

func (m *Mobile) requestHandoff(target topology.CellID, speedMPS float64) {
	st, err := m.dir.StationFor(target)
	if err != nil {
		return
	}
	m.seq++
	req := HandoffRequest{
		MN:       m.profile.Home,
		From:     m.servingCell,
		To:       target,
		BPS:      m.profile.DemandBPS,
		SpeedMPS: speedMPS,
		Seq:      m.seq,
	}
	if a := m.dir.DomainAuth(st.Cell().Domain); a != nil {
		m.nonce++
		req.Nonce = m.nonce
		copy(req.Token[:], a.Token(m.profile.Home, m.nonce))
	}
	m.trace.Emit(m.sched.Now(), obs.KindHandoffRequest, m.traceActor, int32(target), 0, 0)
	if m.rec == nil {
		m.rec = new(pendingHandoff)
	}
	p := m.rec
	p.target, p.seq, p.sentAt = target, m.seq, m.sched.Now()
	p.timeout = m.sched.AfterFIFO(m.cfg.HandoffTimeout, m.handoffTimeoutFn)
	m.pending = p
	req.marshalTo(&p.wire)
	m.sendControlTo(st, p.wire[:])
}

// handoffTimedOut abandons the pending request its timeout was armed
// for: a reply, accepted or refused, cancels the timeout, so a timeout
// that fires always belongs to the request still pending. The next
// decision round retries.
func (m *Mobile) handoffTimedOut() { m.pending = nil }

// commitHandoff completes an accepted handoff: attach the new air link,
// send the Update Location Message up the new path, and send the Delete
// Location Message toward the old station "in the same time" (§3.2).
func (m *Mobile) commitHandoff(reply *HandoffReply) {
	p := m.pending
	m.pending = nil
	p.timeout.Cancel()
	newSt, err := m.dir.StationFor(p.target)
	if err != nil {
		return
	}
	oldCell := m.servingCell
	oldSt := m.serving
	kind := Classify(m.top, oldCell, p.target)

	// Make-before-break where the old link still exists: the new air
	// comes up before the old is torn down, so downlink continuity holds
	// through the crossover re-point.
	newSt.AttachMN(m.profile.Home, m.node)
	m.serving = newSt
	m.servingCell = p.target

	m.seq++
	up := &UpdateLocation{MN: m.profile.Home, NewCell: p.target, OldCell: oldCell, Seq: m.seq}
	m.sendControlTo(newSt, up.Marshal())
	if m.OnLocationSignal != nil {
		m.OnLocationSignal()
	}

	if oldCell != topology.NoCell {
		m.seq++
		del := &DeleteLocation{MN: m.profile.Home, Cell: oldCell, NewCell: p.target, Seq: m.seq}
		// The Delete travels via the new station (§3.2 sends both "in the
		// same time"); the fabric routes it to the old cell even when the
		// old air link is already gone.
		m.sendControlTo(newSt, del.Marshal())
		if oldSt != nil {
			oldSt.DetachMN(m.profile.Home)
		}
	}

	m.state = StateActive
	m.restartTickers()
	latency := m.sched.Now() - p.sentAt
	m.trace.Emit(m.sched.Now(), obs.KindHandoffCommit, m.traceActor, int32(p.target), int32(kind), int64(latency))
	m.stats.HandoffLatency.Observe(latency)
	if c, ok := m.stats.HandoffsByKind[kind]; ok {
		c.Inc()
	}
	if m.OnHandoff != nil {
		m.OnHandoff(kind, latency)
	}
}

func (m *Mobile) sendControlTo(st *Station, payload []byte) {
	pkt := packet.NewControl(m.profile.Home, st.Node().Addr(), packet.ProtoTier, payload)
	m.stats.ControlBytes.Add(uint64(pkt.Size()))
	_ = m.node.Network().DeliverDirect(m.node, st.Node(), pkt, m.cfg.AirDelay, m.cfg.AirLoss)
}

func (m *Mobile) restartTickers() {
	m.stopTickers()
	if m.serving == nil {
		return
	}
	interval := m.cfg.PagingInterval
	if m.state == StateActive {
		interval = m.cfg.LocationInterval
	}
	m.locTicker = m.sched.Rearm(m.locTicker, interval, m.sendLocation)
	if m.state == StateActive {
		m.armIdleTimer()
	}
}

func (m *Mobile) stopTickers() {
	if m.locTicker != nil {
		m.locTicker.Stop()
	}
	m.idleTimer.Cancel()
}

func (m *Mobile) armIdleTimer() {
	m.idleTimer.Cancel()
	m.idleTimer = m.sched.AfterFIFO(m.cfg.ActiveTimeout, m.goIdleFn)
}

func (m *Mobile) goIdle() {
	if m.state == StateIdle {
		return
	}
	m.state = StateIdle
	m.restartTickers()
}

func (m *Mobile) goActive() {
	if m.state == StateActive {
		m.armIdleTimer()
		return
	}
	m.state = StateActive
	m.sendLocation()
	m.restartTickers()
}

// ForceLocationRefresh sends the MN's Location Message immediately,
// outside its own ticker cadence. The closed control loop's pre-paging
// policy uses it after a fault: an idle MN would otherwise wait out the
// long paging interval before its refresh rebuilds the wiped anchor
// registration. The MN's tickers are untouched — this only pulls one
// refresh forward. Reports false when no serving station exists to
// signal through.
func (m *Mobile) ForceLocationRefresh() bool {
	if m.serving == nil {
		return false
	}
	m.sendLocation()
	return true
}

// sendLocation emits the periodic Location Message. Idle MNs send the
// same message at the longer paging interval — that interval difference
// is exactly the idle-mode signalling saving E8 measures.
func (m *Mobile) sendLocation() {
	if m.serving == nil {
		return
	}
	m.seq++
	loc := &LocationMessage{MN: m.profile.Home, Serving: m.servingCell, Seq: m.seq}
	m.sendControlTo(m.serving, loc.Marshal())
	if m.OnLocationSignal != nil {
		m.OnLocationSignal()
	}
}

// Receive implements netsim.Handler. The MN is a terminal receiver and
// releases every delivered packet after handling.
func (m *Mobile) Receive(pkt *packet.Packet, from *netsim.Node, link *netsim.Link) {
	defer packet.Release(pkt)
	if pkt.Proto == packet.ProtoTier {
		var sc msgScratch // stays on the stack: nothing keeps the reply
		msg, err := sc.decode(pkt.Payload)
		if err != nil {
			return
		}
		reply, ok := msg.(*HandoffReply)
		if !ok || m.pending == nil || reply.Seq != m.pending.seq {
			return
		}
		if !reply.Accepted {
			m.pending.timeout.Cancel()
			m.pending = nil
			return
		}
		m.commitHandoff(reply)
		return
	}
	if m.dedupe.Duplicate(pkt.FlowID, pkt.Seq) {
		return
	}
	m.goActive()
	if m.OnData != nil {
		m.OnData(pkt)
	}
}
