package cellularip

import (
	"repro/internal/addr"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// HostState is the Cellular IP host state (§2.2.2 paging).
type HostState int

// Host states.
const (
	StateActive HostState = iota + 1
	StateIdle
)

// String implements fmt.Stringer.
func (s HostState) String() string {
	if s == StateActive {
		return "active"
	}
	return "idle"
}

// MobileHost is the Cellular IP client: it refreshes its routing-cache
// chain while active, pages while idle, and performs hard or semisoft
// handoffs between base stations.
type MobileHost struct {
	node  *netsim.Node
	ip    addr.IP
	cfg   Config
	sched *simtime.Scheduler
	stats *Stats

	bs    *BaseStation // serving station
	oldBS *BaseStation // non-nil during a semisoft handoff window

	state HostState
	seq   uint32
	// Bound once so per-packet idle re-arms and the tickers' first arming
	// never allocate method-value closures; each ticker is made at its
	// first arming and Reset at every restart after it.
	goIdleFn     func()
	routeFn      func()
	pagingFn     func()
	routeTicker  *simtime.Ticker
	pagingTicker *simtime.Ticker
	idleTimer    simtime.Event
	semisoftEvt  simtime.Event
	dedup        packet.Dedup

	// OnData receives every unique data packet delivered to the host.
	OnData func(p *packet.Packet)
	// OnLocationSignal is told about every route/paging update this host
	// originates — the per-profile signalling attribution hook.
	OnLocationSignal func()

	// trace receives handoff/route-update events when armed; nil is inert.
	trace      *obs.Trace
	traceActor int32
}

var _ netsim.Handler = (*MobileHost)(nil)

// NewMobileHost attaches Cellular IP client behaviour to node under the
// address ip (added to the node). Hosts start idle and detached. stats
// must be non-nil; NewStats(nil) gives a private registry.
func NewMobileHost(node *netsim.Node, ip addr.IP, cfg Config, stats *Stats) *MobileHost {
	h := &MobileHost{
		node:  node,
		ip:    ip,
		cfg:   cfg,
		sched: node.Network().Scheduler(),
		stats: stats,
		state: StateIdle,
	}
	node.AddAddr(ip)
	node.SetHandler(h)
	h.goIdleFn = h.goIdle
	h.routeFn = func() { h.sendRouteUpdate(false) }
	h.pagingFn = h.sendPagingUpdate
	return h
}

// SetTrace arms handoff and route-update trace emission attributed to
// the given actor index. A nil trace stays inert.
func (h *MobileHost) SetTrace(tr *obs.Trace, actor int32) {
	h.trace = tr
	h.traceActor = actor
}

// AttachHard performs a Cellular IP hard handoff: break the old air link,
// attach to bs, and send a route-update through it. Packets in flight on
// the old path are lost until the crossover station learns the new path.
func (h *MobileHost) AttachHard(bs *BaseStation) {
	if h.bs == bs {
		return
	}
	h.abortSemisoft()
	if h.bs != nil {
		h.bs.DetachHost(h.ip)
		h.trace.Emit(h.sched.Now(), obs.KindHandoffDetach, h.traceActor, -1, 0, 0)
		h.stats.Handoffs.Inc()
	}
	h.bs = bs
	bs.AttachHost(h.ip, h.node)
	// Sending a route update is active behaviour: a freshly attached or
	// handed-off host is reachable through its routing chain until the
	// active-state timeout demotes it.
	h.state = StateActive
	h.sendRouteUpdate(false)
	h.restartTickers()
}

// AttachSemisoft performs a semisoft handoff: the host keeps receiving on
// the old station while a semisoft route-update prepares the new path
// (creating a bicast at the crossover). After SemisoftDelay it completes
// the switch with a regular route-update.
func (h *MobileHost) AttachSemisoft(bs *BaseStation) {
	if h.bs == bs || bs == nil {
		return
	}
	if h.bs == nil {
		h.AttachHard(bs)
		return
	}
	h.abortSemisoft()
	h.oldBS = h.bs
	h.bs = bs
	bs.AttachHost(h.ip, h.node) // listen on both during the window
	h.sendSemisoftUpdate()
	h.semisoftEvt = h.sched.AfterFIFO(h.cfg.SemisoftDelay, h.completeSemisoft)
}

func (h *MobileHost) completeSemisoft() {
	if h.oldBS != nil {
		h.oldBS.DetachHost(h.ip)
		h.oldBS = nil
		h.stats.Handoffs.Inc()
	}
	h.state = StateActive
	h.sendRouteUpdate(false)
	h.restartTickers()
}

func (h *MobileHost) abortSemisoft() {
	h.semisoftEvt.Cancel()
	h.semisoftEvt = simtime.Event{}
	if h.oldBS != nil {
		h.oldBS.DetachHost(h.ip)
		h.oldBS = nil
	}
}

func (h *MobileHost) restartTickers() {
	h.stopTickers()
	if h.state == StateActive {
		h.routeTicker = h.sched.Rearm(h.routeTicker, h.cfg.RouteUpdateTime, h.routeFn)
		h.armIdleTimer()
	} else {
		h.pagingTicker = h.sched.Rearm(h.pagingTicker, h.cfg.PagingUpdateTime, h.pagingFn)
	}
}

func (h *MobileHost) stopTickers() {
	if h.routeTicker != nil {
		h.routeTicker.Stop()
	}
	if h.pagingTicker != nil {
		h.pagingTicker.Stop()
	}
	h.idleTimer.Cancel()
}

func (h *MobileHost) armIdleTimer() {
	h.idleTimer.Cancel()
	h.idleTimer = h.sched.AfterFIFO(h.cfg.ActiveTimeout, h.goIdleFn)
}

func (h *MobileHost) goIdle() {
	if h.state == StateIdle {
		return
	}
	h.state = StateIdle
	h.stats.IdleTransitions.Inc()
	h.restartTickers()
}

// goActive transitions to active and refreshes the route immediately, as
// CIP requires when an idle host gets traffic.
func (h *MobileHost) goActive() {
	wasIdle := h.state == StateIdle
	h.state = StateActive
	if wasIdle {
		h.sendRouteUpdate(false)
		h.restartTickers()
	} else {
		h.armIdleTimer()
	}
}

func (h *MobileHost) sendRouteUpdate(semisoft bool) {
	var aux int32
	if semisoft {
		aux = 1
	}
	h.trace.Emit(h.sched.Now(), obs.KindRouteUpdate, h.traceActor, -1, aux, 0)
	h.sendControl(&RouteUpdate{Host: h.ip, Seq: h.nextSeq(), Semisoft: semisoft}, h.bs)
}

func (h *MobileHost) sendSemisoftUpdate() {
	h.trace.Emit(h.sched.Now(), obs.KindRouteUpdate, h.traceActor, -1, 1, 0)
	h.sendControl(&RouteUpdate{Host: h.ip, Seq: h.nextSeq(), Semisoft: true}, h.bs)
}

func (h *MobileHost) sendPagingUpdate() {
	h.sendControl(&PagingUpdate{Host: h.ip, Seq: h.nextSeq()}, h.bs)
}

func (h *MobileHost) nextSeq() uint32 {
	h.seq++
	return h.seq
}

func (h *MobileHost) sendControl(msg Message, via *BaseStation) {
	if via == nil {
		return
	}
	var payload []byte
	switch m := msg.(type) {
	case *RouteUpdate:
		payload = m.Marshal()
	case *PagingUpdate:
		payload = m.Marshal()
	default:
		return
	}
	pkt := packet.NewControl(h.ip, via.Node().Addr(), packet.ProtoCellular, payload)
	h.stats.ControlBytes.Add(uint64(pkt.Size()))
	if h.OnLocationSignal != nil {
		h.OnLocationSignal()
	}
	_ = h.node.Network().DeliverDirect(h.node, via.Node(), pkt, h.cfg.AirDelay, h.cfg.AirLoss)
}

// Receive implements netsim.Handler: deduplicate, wake from idle, deliver.
// The host is a terminal receiver and releases every delivered packet.
func (h *MobileHost) Receive(pkt *packet.Packet, from *netsim.Node, link *netsim.Link) {
	defer packet.Release(pkt)
	if pkt.Proto == packet.ProtoCellular {
		return // hosts do not process CIP control
	}
	if h.dedup.Duplicate(pkt.FlowID, pkt.Seq) {
		h.stats.BicastDuplicates.Inc()
		return
	}
	h.goActive()
	if h.OnData != nil {
		h.OnData(pkt)
	}
}
