package multitier

import (
	"errors"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/metrics"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/qos"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// forwardRec is the short-lived redirect state a Delete Location Message
// leaves behind (§3.2: "this record will keep a while until MN has
// completed handoff"). NewCell may be NoCell when the MN vanished
// (coverage loss) — then packets wait in the buffer until the MN
// reappears or the record times out.
type forwardRec struct {
	newCell  topology.CellID
	expires  time.Duration
	buf      *qos.SwitchBuffer
	drainEvt simtime.Event
}

// anchorReg tracks the root anchor's Mobile IP registration for one MN.
type anchorReg struct {
	id         uint64
	sentAt     time.Duration
	registered bool
}

// Station is one multi-tier base station: it owns the cell tables of its
// cell (§3.1), admits handoffs against its QoS resources (§3.2), serves
// attached MNs over the air, and forwards data up and down the tier
// hierarchy. Root stations additionally act as the Mobile IP anchor for
// their subtree: the HA tunnels to the root's care-of address, and the
// root registers visiting MNs with their Home Agents.
type Station struct {
	cell  *topology.Cell
	top   *topology.Topology
	node  *netsim.Node
	cfg   StationConfig
	stats *Stats
	sched *simtime.Scheduler
	dir   *Directory

	parent      *Station
	children    map[topology.CellID]*Station
	childOrder  []*Station // children sorted by cell ID: flood fan-out order must be deterministic
	childByNode map[netsim.NodeID]*Station

	tables    *CellTables
	resources *qos.CellResources
	sessions  map[addr.IP]*qos.Session
	attached  map[addr.IP]*netsim.Node
	forwards  map[addr.IP]*forwardRec
	msgs      msgScratch // control-message decode storage

	controller Controller

	// degrade, when set, lets the run-wide degradation ladder veto fresh
	// admissions and nominate preemption victims. regPacer, when set,
	// paces this root's Mobile IP registrations toward the Home Agents
	// (the registration-storm circuit breaker). Both nil by default: the
	// un-armed station is byte-identical to the pre-degradation one.
	degrade  *DegradeHooks
	regPacer RegPacer

	anchorAddr addr.IP
	external   *netsim.StaticRouter
	regState   map[addr.IP]*anchorReg
	regSeq     uint64
	regLife    time.Duration
	anchorAuth *auth.Authenticator // signs anchor registrations when armed

	// peakUtil is the highest channel occupancy this cell ever reached —
	// the per-cell utilization figure the capacity experiments read.
	peakUtil float64
	// rootOcc streams this cell's occupancy into its root's aggregate —
	// the per-root load-balance telemetry dimensioned grids report.
	rootOcc *metrics.Sample
}

var _ netsim.Handler = (*Station)(nil)

// NewStation attaches multi-tier behaviour to node for the given cell and
// registers itself in the directory. The node's handler is replaced and
// the node gains the cell's .1 address. stats must be non-nil;
// NewStats(nil) gives a private registry.
func NewStation(node *netsim.Node, cell *topology.Cell, top *topology.Topology,
	cfg StationConfig, dir *Directory, stats *Stats) *Station {

	s := &Station{
		cell:        cell,
		top:         top,
		node:        node,
		cfg:         cfg,
		stats:       stats,
		sched:       node.Network().Scheduler(),
		dir:         dir,
		children:    make(map[topology.CellID]*Station),
		childByNode: make(map[netsim.NodeID]*Station),
		tables:      NewCellTables(cell.Tier, cfg.TableTTL, node.Network().Scheduler()),
		resources:   qos.NewCellResources(cfg.Channels, cfg.GuardChannels, cfg.CapacityBPS),
		sessions:    make(map[addr.IP]*qos.Session),
		attached:    make(map[addr.IP]*netsim.Node),
		forwards:    make(map[addr.IP]*forwardRec),
		regState:    make(map[addr.IP]*anchorReg),
		regLife:     60 * time.Second,
	}
	if ip, err := cell.Prefix.Nth(1); err == nil {
		node.AddAddr(ip)
	}
	s.rootOcc = stats.RootOccupancy(top.RootOf(cell.ID))
	node.SetHandler(s)
	dir.registerStation(s)
	return s
}

// Cell returns the served cell.
func (s *Station) Cell() *topology.Cell { return s.cell }

// Node returns the underlying network node.
func (s *Station) Node() *netsim.Node { return s.node }

// Tables exposes the cell tables for tests and experiments.
func (s *Station) Tables() *CellTables { return s.tables }

// Resources exposes the admission state.
func (s *Station) Resources() *qos.CellResources { return s.resources }

// Config returns the station configuration.
func (s *Station) Config() StationConfig { return s.cfg }

// SetController installs the domain RSMC hook.
func (s *Station) SetController(c Controller) { s.controller = c }

// SetDegrade installs the degradation-ladder hooks (shared across every
// station of a run). Nil disarms class-aware degradation.
func (s *Station) SetDegrade(h *DegradeHooks) { s.degrade = h }

// SetRegPacer installs the registration-storm breaker on a root anchor.
// Nil disarms pacing.
func (s *Station) SetRegPacer(p RegPacer) { s.regPacer = p }

// Controller returns the installed RSMC hook, if any.
func (s *Station) Controller() Controller { return s.controller }

// ConnectChild wires child beneath s.
func (s *Station) ConnectChild(child *Station, linkCfg netsim.LinkConfig) *netsim.Link {
	l := s.node.Network().Connect(s.node, child.node, linkCfg)
	child.parent = s
	s.children[child.cell.ID] = child
	s.childOrder = append(s.childOrder, child)
	sort.Slice(s.childOrder, func(i, j int) bool {
		return s.childOrder[i].cell.ID < s.childOrder[j].cell.ID
	})
	s.childByNode[child.node.ID()] = child
	return l
}

// MakeAnchor turns a root station into the Mobile IP anchor for its
// subtree: anchorAddr is the care-of address Home Agents tunnel to. The
// caller wires the external link and configures the returned router.
func (s *Station) MakeAnchor(anchorAddr addr.IP) *netsim.StaticRouter {
	s.anchorAddr = anchorAddr
	s.node.AddAddr(anchorAddr)
	s.external = netsim.NewDetachedRouter(s.node)
	return s.external
}

// AnchorAddr returns the root's care-of address (unspecified when not an
// anchor).
func (s *Station) AnchorAddr() addr.IP { return s.anchorAddr }

// SetAnchorAuth arms MHAE signing of the root's anchor registrations
// with the Home Agents (the same extension mobile nodes use in the flat
// Mobile IP scheme).
func (s *Station) SetAnchorAuth(a *auth.Authenticator) { s.anchorAuth = a }

// SetAirLoss changes the station's air-interface loss probability
// (fault injection: regional radio fade).
func (s *Station) SetAirLoss(p float64) { s.cfg.AirLoss = p }

// Fail forces the station down (fault injection). Arrivals start dying
// at the netsim layer as reason-coded bs-down drops; this method disposes
// of the soft state a crash loses, deterministically:
//   - switch buffers are flushed, every packet Released through a
//     reason-coded fault drop (no pool leaks);
//   - admitted sessions are released and attached MNs detached;
//   - a root's anchor registrations are wiped, so every served MN must
//     be re-registered with its Home Agent after recovery — the mass
//     re-registration storm E11 measures.
//
// Cell tables are left to their TTLs: peers' records pointing at the
// dead station age out exactly like the paper's soft-state tables.
func (s *Station) Fail() {
	if s.node.Down() {
		return
	}
	s.node.SetDown(true)
	// Flush in sorted key order: the drop observer and packet pool see a
	// deterministic sequence regardless of map layout.
	mns := make([]addr.IP, 0, len(s.forwards))
	for mn := range s.forwards {
		mns = append(mns, mn)
	}
	sort.Slice(mns, func(i, j int) bool { return mns[i] < mns[j] })
	for _, mn := range mns {
		fr := s.forwards[mn]
		fr.drainEvt.Cancel()
		fr.buf.Drain(func(p *packet.Packet) { s.dropFault(p) })
		delete(s.forwards, mn)
	}
	mns = mns[:0]
	for mn := range s.sessions {
		mns = append(mns, mn)
	}
	sort.Slice(mns, func(i, j int) bool { return mns[i] < mns[j] })
	for _, mn := range mns {
		s.ReleaseSession(mn)
	}
	mns = mns[:0]
	for mn := range s.attached {
		mns = append(mns, mn)
	}
	sort.Slice(mns, func(i, j int) bool { return mns[i] < mns[j] })
	for _, mn := range mns {
		s.DetachMN(mn)
	}
	if n := len(s.regState); n > 0 {
		s.stats.FaultDeregs.Add(uint64(n))
		clear(s.regState)
	}
}

// Recover brings a failed station back up. Lost soft state is NOT
// restored: MNs re-attach and re-register through the normal protocol
// machinery, and a root re-acquires its HA bindings as location
// refreshes arrive — recovery is measured, not assumed.
func (s *Station) Recover() { s.node.SetDown(false) }

// dropFault disposes of one buffered packet at a failing station: the
// network observer accounts it as a fault drop and releases it.
func (s *Station) dropFault(p *packet.Packet) {
	s.stats.FaultDrops.Inc()
	s.node.Network().Drop(s.node, p, metrics.DropFault)
}

// AttachMN associates an MN with this station's air interface. The MN
// object calls this at handoff commit.
func (s *Station) AttachMN(mn addr.IP, node *netsim.Node) {
	s.attached[mn] = node
	if s.controller != nil {
		s.controller.OnAttach(mn)
	}
}

// DetachMN breaks the air association without protocol action.
func (s *Station) DetachMN(mn addr.IP) {
	delete(s.attached, mn)
	if s.controller != nil {
		s.controller.OnDetach(mn)
	}
}

// HasMN reports whether the MN is attached here.
func (s *Station) HasMN(mn addr.IP) bool {
	_, ok := s.attached[mn]
	return ok
}

// CanAdmit probes admission without side effects (decision factor 3). A
// downed station admits nothing, which is what steers measuring MNs
// toward surviving cells during an outage.
func (s *Station) CanAdmit(bps float64, handoff bool) bool {
	return !s.node.Down() && s.resources.CanAdmit(qos.Request{BPS: bps, Handoff: handoff})
}

// ReleaseSession frees the MN's admitted resources, if any.
func (s *Station) ReleaseSession(mn addr.IP) {
	if sess, ok := s.sessions[mn]; ok {
		_ = sess.Release()
		delete(s.sessions, mn)
		s.observeOccupancy()
	}
}

// PeakUtilization returns the highest channel occupancy the cell
// reached over the run, in [0, 1].
func (s *Station) PeakUtilization() float64 { return s.peakUtil }

// Utilization returns the cell's current channel occupancy in [0, 1] —
// the instantaneous gauge the observability sampler reads on a cadence
// (PeakUtilization and the streaming samples stay event-driven).
func (s *Station) Utilization() float64 { return s.resources.Channels.Utilization() }

// observeOccupancy folds the cell's current channel occupancy into the
// tier's streaming sample, the owning root's load-balance sample and the
// cell's peak. Called after every admission grant and session release, so
// both occupancy distributions are exact without retaining per-event
// state.
func (s *Station) observeOccupancy() {
	u := s.resources.Channels.Utilization()
	if u > s.peakUtil {
		s.peakUtil = u
	}
	if smp, ok := s.stats.TierOccupancy[s.cell.Tier]; ok {
		smp.Observe(u)
	}
	s.rootOcc.Observe(u)
}

// childToward returns the child station whose subtree contains cell, or
// nil when cell is not below this station.
func (s *Station) childToward(cell topology.CellID) *Station {
	for id := cell; id != topology.NoCell; id = s.top.Cells[id].Parent {
		if child, ok := s.children[id]; ok {
			return child
		}
	}
	return nil
}

// Receive implements netsim.Handler. Ingress classes: air (link == nil),
// parent (downlink), child (uplink), external (the root's Internet side).
func (s *Station) Receive(pkt *packet.Packet, from *netsim.Node, link *netsim.Link) {
	switch {
	case link == nil:
		s.receiveAir(pkt, from)
	case s.parent != nil && from == s.parent.node:
		s.receiveDown(pkt)
	case s.childByNode[from.ID()] != nil:
		s.receiveUp(pkt, s.childByNode[from.ID()])
	default:
		s.receiveExternal(pkt)
	}
}

// receiveAir handles packets from attached MNs.
func (s *Station) receiveAir(pkt *packet.Packet, from *netsim.Node) {
	if pkt.Proto == packet.ProtoTier {
		s.consumeControl(pkt, s.cell.ID, from)
		return
	}
	s.forwardUp(pkt)
}

// receiveDown handles wired packets from the parent station.
func (s *Station) receiveDown(pkt *packet.Packet) {
	if pkt.Proto == packet.ProtoTier {
		s.consumeControl(pkt, topology.NoCell, nil)
		return
	}
	s.deliverDown(pkt)
}

// consumeControl parses and handles a multi-tier control packet. Stations
// never forward the control packet itself — propagation wraps the payload
// in a fresh packet — so the incoming packet is terminal here and is
// released on every path.
func (s *Station) consumeControl(pkt *packet.Packet, via topology.CellID, airFrom *netsim.Node) {
	defer packet.Release(pkt)
	msg, err := s.msgs.decode(pkt.Payload)
	if err != nil {
		return
	}
	s.handleControl(msg, pkt, via, airFrom)
}

// receiveUp handles wired packets from a child station.
func (s *Station) receiveUp(pkt *packet.Packet, child *Station) {
	if pkt.Proto == packet.ProtoTier {
		s.consumeControl(pkt, child.cell.ID, nil)
		return
	}
	if pkt.Flags&packet.FlagRetransmit != 0 && s.parent != nil {
		// Redirected packets climb to the root before re-descending so
		// they cannot loop through stale branch records.
		s.sendUpData(pkt)
		return
	}
	if pkt.Flags&packet.FlagRetransmit != 0 {
		pkt.Flags &^= packet.FlagRetransmit
		s.deliverDown(pkt)
		return
	}
	s.forwardUp(pkt)
}

// receiveExternal handles the root's Internet-side traffic: tunnelled
// packets from Home Agents, registration replies, and redirected tunnels
// from other roots.
func (s *Station) receiveExternal(pkt *packet.Packet) {
	switch {
	case pkt.Proto == packet.ProtoIPinIP && (pkt.Dst == s.anchorAddr || s.node.HasAddr(pkt.Dst)):
		inner, err := pkt.Decapsulate()
		if err != nil {
			packet.Release(pkt)
			return
		}
		// The tunnel wrapper ends here: detach the inner packet, release
		// the wrapper, and route the inner alone.
		pkt.Inner = nil
		packet.Release(pkt)
		s.deliverDown(inner)
	case pkt.Proto == packet.ProtoMobileIP && s.node.HasAddr(pkt.Dst):
		s.handleAnchorReply(pkt)
		packet.Release(pkt)
	case pkt.Proto == packet.ProtoTier:
		s.consumeControl(pkt, topology.NoCell, nil)
	case s.node.HasAddr(pkt.Dst):
		// Nothing else addressed to the station is meaningful.
		packet.Release(pkt)
	default:
		s.deliverDown(pkt)
	}
}

// handleControl dispatches a multi-tier control message. via is the cell
// the message arrived through (own cell for air, child cell for wired
// uplink, NoCell from parent/external), airFrom the MN node for air
// ingress.
func (s *Station) handleControl(msg Message, pkt *packet.Packet, via topology.CellID, airFrom *netsim.Node) {
	switch m := msg.(type) {
	case *LocationMessage:
		s.handleLocation(m, pkt, via)
	case *UpdateLocation:
		s.handleUpdate(m, pkt, via)
	case *DeleteLocation:
		s.handleDelete(m, pkt, via)
	case *HandoffRequest:
		s.handleHandoffRequest(m, airFrom)
	case *HandoffReply:
		// Replies travel over the air directly to MNs; a station seeing
		// one on the wire ignores it.
	}
}

// applyRecord updates this station's tables and resolves any pending
// forward state for the MN (it became reachable again via `via`).
func (s *Station) applyRecord(mn addr.IP, via topology.CellID, seq uint32, servingTier topology.Tier) {
	s.tables.Update(mn, via, seq, servingTier)
	if fr, ok := s.forwards[mn]; ok {
		s.drainForward(mn, fr)
	}
}

func (s *Station) handleLocation(m *LocationMessage, pkt *packet.Packet, via topology.CellID) {
	s.stats.LocationMsgs.Inc()
	servingTier := topology.TierMicro
	if c := s.top.Cell(m.Serving); c != nil {
		servingTier = c.Tier
	}
	s.applyRecord(m.MN, via, m.Seq, servingTier)
	if s.parent == nil {
		// The root anchor keeps the HA binding fresh off the same
		// periodic signal that keeps the tables fresh.
		s.maybeRegisterAnchor(m.MN)
		return
	}
	s.propagateUp(pkt)
}

func (s *Station) handleUpdate(m *UpdateLocation, pkt *packet.Packet, via topology.CellID) {
	s.stats.UpdateMsgs.Inc()
	servingTier := topology.TierMicro
	if c := s.top.Cell(m.NewCell); c != nil {
		servingTier = c.Tier
	}
	if via == topology.NoCell {
		// Arrived top-down (inter-root redirect): route toward the new
		// cell is through one of our children.
		if child := s.childToward(m.NewCell); child != nil {
			via = child.cell.ID
		} else {
			via = m.NewCell
		}
	}
	s.applyRecord(m.MN, via, m.Seq, servingTier)
	if s.parent == nil {
		s.maybeRegisterAnchor(m.MN)
		return
	}
	s.propagateUp(pkt)
}

// handleDelete implements the Delete Location Message walk: the message
// travels toward the old cell, erasing records that still point that way
// and leaving forward records behind.
func (s *Station) handleDelete(m *DeleteLocation, pkt *packet.Packet, via topology.CellID) {
	s.stats.DeleteMsgs.Inc()
	atTarget := m.Cell == s.cell.ID
	towardOld := s.childToward(m.Cell)

	// Erase only records that still point toward the old cell; a record
	// already re-pointed by a newer Update must survive.
	if r, ok := s.tables.Lookup(m.MN); ok {
		pointsOld := (atTarget && r.Via == s.cell.ID) || (towardOld != nil && r.Via == towardOld.cell.ID)
		if pointsOld {
			s.tables.Delete(m.MN)
			s.installForward(m.MN, m.NewCell)
		}
	} else if atTarget {
		s.installForward(m.MN, m.NewCell)
	}

	if atTarget {
		// The old serving station: free radio state.
		s.ReleaseSession(m.MN)
		if s.HasMN(m.MN) {
			s.DetachMN(m.MN)
		}
		return
	}
	// Keep walking toward the old cell.
	switch {
	case towardOld != nil:
		s.sendControlTo(towardOld, pkt)
	case s.parent != nil:
		s.propagateUp(pkt)
	default:
		// Root of a different tree: cross to the old cell's root via the
		// Internet.
		oldRoot := s.top.RootOf(m.Cell)
		if st, err := s.dir.StationFor(oldRoot); err == nil && s.external != nil {
			out := packet.NewControl(s.node.Addr(), st.node.Addr(), packet.ProtoTier, pkt.Payload)
			s.stats.ControlBytes.Add(uint64(out.Size()))
			s.external.Forward(out)
		}
	}
}

// installForward creates redirect state for an MN that just left.
func (s *Station) installForward(mn addr.IP, newCell topology.CellID) {
	fr, ok := s.forwards[mn]
	if !ok {
		fr = &forwardRec{buf: qos.NewSwitchBuffer(s.cfg.SwitchBufferLimit)}
		s.forwards[mn] = fr
	}
	fr.newCell = newCell
	fr.expires = s.sched.Now() + s.cfg.ForwardTTL
	s.sched.AfterFIFO(s.cfg.ForwardTTL, func() { s.expireForward(mn) })
}

func (s *Station) expireForward(mn addr.IP) {
	fr, ok := s.forwards[mn]
	if !ok || fr.expires > s.sched.Now() {
		return
	}
	// Discarded packets were absorbed by this station (never re-sent), so
	// they are recycled rather than accounted as network drops.
	if n := fr.buf.Discard(); n > 0 {
		s.stats.BufferDiscards.Add(uint64(n))
	}
	delete(s.forwards, mn)
}

// drainForward replays buffered packets and removes the redirect state;
// the MN is reachable again (a fresh record was applied at this station).
func (s *Station) drainForward(mn addr.IP, fr *forwardRec) {
	fr.drainEvt.Cancel()
	delete(s.forwards, mn)
	n := fr.buf.Drain(func(p *packet.Packet) {
		p.Flags &^= packet.FlagRetransmit
		s.deliverDown(p)
	})
	if n > 0 {
		s.stats.Drained.Add(uint64(n))
	}
}

// redirect sends a packet for a departed MN toward its new location: up to
// the root (which holds the freshest record) or across roots through the
// Internet.
func (s *Station) redirect(pkt *packet.Packet, fr *forwardRec) {
	s.stats.Redirects.Inc()
	if s.parent != nil {
		pkt.Flags |= packet.FlagRetransmit
		s.sendUpData(pkt)
		return
	}
	// At a root. If the MN moved under another root, re-tunnel there.
	if fr.newCell != topology.NoCell {
		newRoot := s.top.RootOf(fr.newCell)
		if newRoot != s.cell.ID {
			if st, err := s.dir.StationFor(newRoot); err == nil && s.external != nil && !st.anchorAddr.IsUnspecified() {
				tun, err := packet.Encapsulate(s.anchorAddr, st.anchorAddr, pkt)
				if err == nil {
					s.external.Forward(tun)
					return
				}
			}
		}
	}
	// Root with no better idea: page the subtree.
	s.pageFlood(pkt)
}

// handleHandoffRequest authenticates (via the domain controller) and
// admits a handoff, replying over the air.
func (s *Station) handleHandoffRequest(m *HandoffRequest, airFrom *netsim.Node) {
	if airFrom == nil {
		return
	}
	reply := &HandoffReply{MN: m.MN, To: m.To, Seq: m.Seq}
	authOK := true
	if s.controller != nil {
		if err := s.controller.Authorize(m.MN, m.Nonce, m.Token[:]); err != nil {
			authOK = false
			if errors.Is(err, ErrFaulted) {
				// The domain head is down: shed by fault, not policy.
				s.stats.ShedFault.Inc()
			} else {
				s.stats.AuthFailures.Inc()
				s.stats.ShedPolicy.Inc()
			}
		}
	}
	if authOK {
		if _, ok := s.sessions[m.MN]; ok {
			// Already admitted here (repeat request): accept idempotently.
			// Not a fresh admission, so the reason-coded counters — which
			// partition *resource decisions* — don't move.
			reply.Accepted = true
		} else {
			var class packet.Class
			if prof, err := s.dir.Profile(m.MN); err == nil {
				class = prof.Class
			}
			handoff := m.From != topology.NoCell
			if s.degrade != nil && s.degrade.DeferNew != nil && s.degrade.DeferNew(class, handoff) {
				// Degradation ladder: the new arrival is shed by policy
				// before it touches the resource pools.
				s.stats.ShedPolicy.Inc()
				s.countRefusal(class, handoff)
				if s.degrade.OnDefer != nil {
					s.degrade.OnDefer(s.cell.ID, class)
				}
			} else {
				req := qos.Request{BPS: m.BPS, Handoff: handoff, Class: class}
				sess, err := s.resources.Admit(req)
				if err != nil && s.degrade != nil && s.preemptFor(class, handoff) {
					sess, err = s.resources.Admit(req)
				}
				if err == nil {
					s.sessions[m.MN] = sess
					reply.Accepted = true
					s.stats.Admitted.Inc()
					if class != 0 {
						s.stats.ClassAdmitted(class).Inc()
					}
					if handoff {
						s.stats.HandoffAdmitted.Inc()
					}
					s.observeOccupancy()
				} else {
					s.stats.ShedCapacity.Inc()
					s.countRefusal(class, handoff)
				}
			}
		}
	}
	if !reply.Accepted {
		s.stats.HandoffRejects.Inc()
	}
	out := packet.NewControl(s.node.Addr(), m.MN, packet.ProtoTier, reply.Marshal())
	s.stats.ControlBytes.Add(uint64(out.Size()))
	_ = s.node.Network().DeliverDirect(s.node, airFrom, out, s.cfg.AirDelay, s.cfg.AirLoss)
}

// countRefusal folds one refused fresh admission into the per-class and
// handoff success-rate partitions.
func (s *Station) countRefusal(class packet.Class, handoff bool) {
	if class != 0 {
		s.stats.ClassRefused(class).Inc()
	}
	if handoff {
		s.stats.HandoffRefused.Inc()
	}
}

// preemptFor tries to evict one lower-priority session so an arriving
// admission of class can retry. Victim selection is deterministic: among
// preemptable sessions the lowest (rank, MN address) wins eviction. Any
// packets the victim still had parked in a switch buffer are flushed as
// reason-coded preemption drops — degradation converts would-be
// conversational refusals into background losses, it never hides them.
func (s *Station) preemptFor(class packet.Class, handoff bool) bool {
	d := s.degrade
	if d == nil || d.CanPreempt == nil || d.Rank == nil || len(s.sessions) == 0 {
		return false
	}
	mns := make([]addr.IP, 0, len(s.sessions))
	for mn := range s.sessions {
		mns = append(mns, mn)
	}
	sort.Slice(mns, func(i, j int) bool { return mns[i] < mns[j] })
	var victim addr.IP
	var vclass packet.Class
	found := false
	for _, mn := range mns {
		c := s.sessions[mn].Class()
		if !d.CanPreempt(class, handoff, c) {
			continue
		}
		if !found || d.Rank(c) < d.Rank(vclass) {
			victim, vclass, found = mn, c, true
		}
	}
	if !found {
		return false
	}
	s.ReleaseSession(victim)
	flushed := 0
	if fr, ok := s.forwards[victim]; ok {
		fr.drainEvt.Cancel()
		flushed = fr.buf.Drain(func(p *packet.Packet) { s.dropPreempted(p) })
		delete(s.forwards, victim)
	}
	if d.OnPreempt != nil {
		d.OnPreempt(s.cell.ID, vclass, flushed)
	}
	return true
}

// dropPreempted disposes of one buffered packet flushed by a preemption:
// the network observer accounts the reason-coded drop and releases it.
func (s *Station) dropPreempted(p *packet.Packet) {
	s.node.Network().Drop(s.node, p, metrics.DropPreempted)
}

// propagateUp relays a control packet toward the root.
func (s *Station) propagateUp(pkt *packet.Packet) {
	if s.parent == nil {
		return
	}
	s.sendControlTo(s.parent, pkt)
}

func (s *Station) sendControlTo(st *Station, pkt *packet.Packet) {
	out := packet.NewControl(s.node.Addr(), st.node.Addr(), packet.ProtoTier, pkt.Payload)
	s.stats.ControlBytes.Add(uint64(out.Size()))
	if err := s.node.SendVia(st.node, out); err != nil {
		s.node.Network().Drop(s.node, out, metrics.DropLinkLoss)
	}
}

// forwardUp moves uplink data toward the root, with a table turnaround at
// crossover stations for intra-network destinations.
func (s *Station) forwardUp(pkt *packet.Packet) {
	if r, ok := s.tables.Lookup(pkt.Dst); ok {
		_ = r
		s.deliverDown(pkt)
		return
	}
	if s.parent != nil {
		s.sendUpData(pkt)
		return
	}
	if s.external != nil {
		s.external.Forward(pkt)
		return
	}
	s.node.Network().Drop(s.node, pkt, metrics.DropNoRoute)
}

func (s *Station) sendUpData(pkt *packet.Packet) {
	if err := pkt.DecrementTTL(); err != nil {
		s.node.Network().Drop(s.node, pkt, metrics.DropTTL)
		return
	}
	if err := s.node.SendVia(s.parent.node, pkt); err != nil {
		s.node.Network().Drop(s.node, pkt, metrics.DropLinkLoss)
	}
}

// deliverDown routes a downlink packet: micro_table then macro_table
// (§3.1), then forward records, then paging flood at domain heads.
func (s *Station) deliverDown(pkt *packet.Packet) {
	if r, ok := s.tables.Lookup(pkt.Dst); ok {
		if r.Via == s.cell.ID {
			s.deliverAir(pkt)
			return
		}
		child, ok := s.children[r.Via]
		if !ok {
			child = s.childToward(r.Via)
		}
		if child == nil {
			s.node.Network().Drop(s.node, pkt, metrics.DropNoRoute)
			return
		}
		if err := pkt.DecrementTTL(); err != nil {
			s.node.Network().Drop(s.node, pkt, metrics.DropTTL)
			return
		}
		if err := s.node.SendVia(child.node, pkt); err != nil {
			s.node.Network().Drop(s.node, pkt, metrics.DropLinkLoss)
		}
		return
	}
	if fr, ok := s.forwards[pkt.Dst]; ok {
		if fr.newCell == topology.NoCell {
			// Resource switching: park until the MN reappears.
			s.bufferPacket(pkt, fr)
			return
		}
		s.redirect(pkt, fr)
		return
	}
	// An attached MN is deliverable even when its soft-state record has
	// expired (idle hosts let records lapse between paging refreshes).
	if node, ok := s.attached[pkt.Dst]; ok {
		_ = s.node.Network().DeliverDirect(s.node, node, pkt, s.cfg.AirDelay, s.cfg.AirLoss)
		return
	}
	// No state at all.
	if s.cell.Tier == topology.TierMacro || s.cell.Tier == topology.TierRoot {
		s.pageFlood(pkt)
		return
	}
	s.dropStale(pkt)
}

// deliverAir hands a packet to the attached MN, engaging resource
// switching when the air record is stale.
func (s *Station) deliverAir(pkt *packet.Packet) {
	node, ok := s.attached[pkt.Dst]
	if !ok {
		if s.cfg.ResourceSwitching {
			fr, have := s.forwards[pkt.Dst]
			if !have {
				fr = &forwardRec{
					newCell: topology.NoCell,
					expires: s.sched.Now() + s.cfg.ForwardTTL,
					buf:     qos.NewSwitchBuffer(s.cfg.SwitchBufferLimit),
				}
				s.forwards[pkt.Dst] = fr
				mn := pkt.Dst
				s.sched.AfterFIFO(s.cfg.ForwardTTL, func() { s.expireForward(mn) })
				// Stale air state: drop the table record so later packets
				// take the forward path immediately.
				s.tables.Delete(pkt.Dst)
			}
			s.bufferPacket(pkt, fr)
			return
		}
		s.dropStale(pkt)
		return
	}
	_ = s.node.Network().DeliverDirect(s.node, node, pkt, s.cfg.AirDelay, s.cfg.AirLoss)
}

func (s *Station) bufferPacket(pkt *packet.Packet, fr *forwardRec) {
	if !s.cfg.ResourceSwitching {
		s.dropStale(pkt)
		return
	}
	if fr.buf.Buffer(pkt) {
		s.stats.Buffered.Inc()
		if !fr.drainEvt.Pending() {
			mn := pkt.Dst
			fr.drainEvt = s.sched.AfterFIFO(s.cfg.DrainDelay, func() { s.timedDrain(mn) })
		}
		return
	}
	// Buffer overflow is handoff loss.
	s.dropStale(pkt)
}

// timedDrain replays buffered packets up the tree (flagged so they climb
// to the root) after the drain delay — by then the Update has normally
// re-pointed the crossover and root records.
func (s *Station) timedDrain(mn addr.IP) {
	fr, ok := s.forwards[mn]
	if !ok {
		return
	}
	fr.drainEvt = simtime.Event{}
	n := fr.buf.Drain(func(p *packet.Packet) {
		if s.parent == nil {
			s.deliverDown(p)
			return
		}
		p.Flags |= packet.FlagRetransmit
		s.sendUpData(p)
	})
	if n > 0 {
		s.stats.Drained.Add(uint64(n))
	}
}

func (s *Station) dropStale(pkt *packet.Packet) {
	s.stats.StaleAirDrops.Inc()
	s.node.Network().Drop(s.node, pkt, metrics.DropHandoff)
}

// pageFlood broadcasts a packet through the subtree to find an MN with no
// location state — the paging role the RSMC consolidates (§4).
func (s *Station) pageFlood(pkt *packet.Packet) {
	s.stats.Pages.Inc()
	if s.stats.PageSink != nil {
		s.stats.PageSink(pkt.Dst)
	}
	if node, ok := s.attached[pkt.Dst]; ok {
		_ = s.node.Network().DeliverDirect(s.node, node, pkt, s.cfg.AirDelay, s.cfg.AirLoss)
		return
	}
	sentAny := false
	for _, child := range s.childOrder {
		out := pkt.Clone()
		// Flood copies are duplicates: receivers dedup them and the
		// accounting must not count their deaths as primary losses.
		out.Flags |= packet.FlagBicast
		if err := out.DecrementTTL(); err != nil {
			packet.Release(out)
			continue
		}
		s.stats.PageBroadcasts.Inc()
		if err := s.node.SendVia(child.node, out); err == nil {
			sentAny = true
		} else {
			packet.Release(out)
		}
	}
	if !sentAny {
		s.dropStale(pkt)
		return
	}
	// Only clones went out; the original dies once the flood fans out.
	packet.Release(pkt)
}

// maybeRegisterAnchor refreshes the root's Mobile IP binding for mn with
// its Home Agent (the anchor-as-FA role; Fig 3.3's home-network
// involvement happens exactly here).
func (s *Station) maybeRegisterAnchor(mn addr.IP) {
	if s.external == nil || s.anchorAddr.IsUnspecified() {
		return
	}
	prof, err := s.dir.Profile(mn)
	if err != nil || prof.HomeAgent.IsUnspecified() {
		return
	}
	st, ok := s.regState[mn]
	if ok && st.registered {
		return // renewal handled by re-registration on table refresh expiry
	}
	if ok && !st.registered && s.sched.Now()-st.sentAt < time.Second {
		return // request outstanding
	}
	// The registration ID mirrors RFC 3344's timestamp Identification:
	// it must be monotone across *anchors*, not just within one, or the
	// HA would reject the new root's binding after an inter-root handoff
	// as a stale retransmission of the old root's.
	s.regSeq++
	id := uint64(s.sched.Now())<<8 | (s.regSeq & 0xFF)
	// sentAt is the admission instant even when the breaker delays the
	// transmit: pacing latency then counts into AnchorRegLatency, and the
	// one-second dedup window covers the queued request too.
	s.regState[mn] = &anchorReg{id: id, sentAt: s.sched.Now()}
	ha := prof.HomeAgent
	sendNow := func() {
		req := &mobileip.RegistrationRequest{
			Home:     mn,
			HomeAg:   ha,
			CareOf:   s.anchorAddr,
			Lifetime: s.regLife,
			ID:       id,
		}
		if s.anchorAuth != nil {
			// The nonce is stamped at actual transmit time so a paced send
			// still lands inside the Home Agent's replay window.
			req.HasAuth = true
			req.Nonce = uint64(s.sched.Now())
			copy(req.Token[:], s.anchorAuth.Token(mn, req.Nonce))
		}
		out := packet.NewControl(s.node.Addr(), ha, packet.ProtoMobileIP, req.Marshal())
		s.stats.AnchorRegistrations.Inc()
		s.stats.ControlBytes.Add(uint64(out.Size()))
		s.external.Forward(out)
	}
	if s.regPacer != nil {
		if delay := s.regPacer.Admit(s.sched.Now()); delay > 0 {
			s.sched.AfterFIFO(delay, func() {
				s.regPacer.Sent(s.sched.Now())
				if s.node.Down() {
					return // the anchor failed while the send was queued
				}
				sendNow()
			})
			return
		}
	}
	sendNow()
}

// handleAnchorReply completes an anchor registration round trip.
func (s *Station) handleAnchorReply(pkt *packet.Packet) {
	msg, err := mobileip.ParseMessage(pkt.Payload)
	if err != nil {
		return
	}
	reply, ok := msg.(*mobileip.RegistrationReply)
	if !ok || reply.Code != mobileip.CodeAccepted {
		return
	}
	st, ok := s.regState[reply.Home]
	if !ok || st.id != reply.ID {
		return
	}
	st.registered = true
	s.stats.AnchorRegLatency.Observe(s.sched.Now() - st.sentAt)
	// Re-register when the binding nears expiry.
	mn := reply.Home
	s.sched.After(time.Duration(float64(reply.Lifetime)*0.8), func() {
		if cur, ok := s.regState[mn]; ok && cur.id == reply.ID {
			cur.registered = false
			if _, live := s.tables.Lookup(mn); live {
				s.maybeRegisterAnchor(mn)
			}
		}
	})
}

// AnchorRegistered reports whether the root currently holds an accepted
// HA binding for mn.
func (s *Station) AnchorRegistered(mn addr.IP) bool {
	st, ok := s.regState[mn]
	return ok && st.registered
}
