package core

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// flowObserver tallies the drops of application data packets (control
// traffic is counted separately by each protocol's stats) and feeds the
// end-to-end conservation check. Sends are counted at the traffic source
// and final deliveries by each MN's OnData callback, not per hop.
type flowObserver struct {
	account *metrics.LossAccount
	drops   map[metrics.DropReason]*metrics.Counter
	reg     *metrics.Registry
	// fleetOf attributes a data flow to its MN's class aggregate; nil
	// when the scenario runs without a fleet.
	fleetOf func(flowID uint32) *metrics.Breakdown
	// trace receives drop events for sampled (FlagTraced) packets; nil
	// when tracing is off. sched supplies the virtual timestamp.
	trace *obs.Trace
	sched *simtime.Scheduler
}

var _ netsim.Observer = (*flowObserver)(nil)

func newFlowObserver(reg *metrics.Registry) *flowObserver {
	return &flowObserver{
		account: reg.Account("data.flows"),
		drops:   make(map[metrics.DropReason]*metrics.Counter),
		reg:     reg,
	}
}

func (o *flowObserver) isData(pkt *packet.Packet) bool {
	if pkt.Proto == packet.ProtoData {
		return true
	}
	if pkt.Proto == packet.ProtoIPinIP && pkt.Inner != nil {
		return pkt.Inner.Proto == packet.ProtoData
	}
	return false
}

// OnDrop implements netsim.Observer.
func (o *flowObserver) OnDrop(at *netsim.Node, pkt *packet.Packet, reason metrics.DropReason) {
	if !o.isData(pkt) {
		return
	}
	o.account.OnDropped(reason)
	c, ok := o.drops[reason]
	if !ok {
		c = o.reg.Counter("data.drops." + reason.String())
		o.drops[reason] = c
	}
	c.Inc()
	if o.fleetOf != nil {
		if bd := o.fleetOf(pkt.FlowID); bd != nil {
			bd.Flows.OnDropped(reason)
		}
	}
	if o.trace != nil {
		// The traced flag rides the inner packet through tunnels
		// (Encapsulate copies the header scalars but not Flags).
		fl := pkt.Flags
		if pkt.Proto == packet.ProtoIPinIP && pkt.Inner != nil {
			fl |= pkt.Inner.Flags
		}
		if fl&packet.FlagTraced != 0 {
			o.trace.Emit(o.sched.Now(), obs.KindPacketDropped, -1, -1, int32(reason), int64(pkt.FlowID))
		}
	}
}

// latencyTracker aggregates end-to-end delay/jitter per QoS class, in
// an array indexed by class.
type latencyTracker struct {
	reg     *metrics.Registry
	byClass [256]classLatency
}

// classLatency is one class's delay and jitter histograms, registered on
// the class's first delivery, and the delay of its last delivered packet.
type classLatency struct {
	latency, jitter *metrics.Histogram
	last            time.Duration
}

func newLatencyTracker(reg *metrics.Registry) *latencyTracker {
	return &latencyTracker{reg: reg}
}

// observe records one delivered packet.
func (lt *latencyTracker) observe(now time.Duration, pkt *packet.Packet) {
	d := now - pkt.SentAt
	c := &lt.byClass[pkt.Class]
	if c.latency == nil {
		c.latency = lt.reg.Histogram("e2e.latency." + pkt.Class.String())
		c.jitter = lt.reg.Histogram("e2e.jitter." + pkt.Class.String())
	} else {
		delta := d - c.last
		if delta < 0 {
			delta = -delta
		}
		c.jitter.Observe(delta)
	}
	c.latency.Observe(d)
	c.last = d
}
