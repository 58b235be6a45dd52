// Package qos implements the resource management the paper's handoff
// strategy consults: per-base-station channel pools with guard channels
// reserved for handoffs, bandwidth accounting for multimedia flows, and
// the resource-switching buffers that hold in-flight packets during a
// handoff so they can be replayed on the new path ("resource switching
// management to reduce data packet loss", §1/§4).
package qos

import (
	"errors"
	"fmt"

	"repro/internal/packet"
)

// Errors returned by admission.
var (
	ErrNoChannels  = errors.New("qos: no free channels")
	ErrNoBandwidth = errors.New("qos: insufficient bandwidth")
	ErrNotGranted  = errors.New("qos: releasing more than granted")
)

// ChannelPool models a base station's radio channels. New sessions may
// only use total-guard channels; handoffs may use every channel. This is
// the classic guard-channel scheme: it trades new-call blocking for
// handoff-drop probability, which the paper's QoS argument favours
// (dropping an ongoing multimedia session is worse than blocking a new
// one).
type ChannelPool struct {
	total int
	guard int
	inUse int

	// Blocked and Dropped count refused new sessions and refused
	// handoffs respectively, for the E7 experiment.
	Blocked uint64
	Dropped uint64
}

// NewChannelPool returns a pool of total channels with guard of them
// reserved for handoffs. guard is clamped into [0, total].
func NewChannelPool(total, guard int) *ChannelPool {
	if total < 0 {
		total = 0
	}
	if guard < 0 {
		guard = 0
	}
	if guard > total {
		guard = total
	}
	return &ChannelPool{total: total, guard: guard}
}

// Total returns the channel count.
func (p *ChannelPool) Total() int { return p.total }

// InUse returns the busy channel count.
func (p *ChannelPool) InUse() int { return p.inUse }

// Free returns the idle channel count.
func (p *ChannelPool) Free() int { return p.total - p.inUse }

// Utilization returns inUse/total in [0,1].
func (p *ChannelPool) Utilization() float64 {
	if p.total == 0 {
		return 1
	}
	return float64(p.inUse) / float64(p.total)
}

// Grow adjusts the pool's channel count by delta (negative shrinks) and
// returns the delta actually applied. Shrinks clamp so total never drops
// below the guard reserve — elastic budget shifting may starve a donor's
// new-call capacity but never its handoff floor. A shrink can leave
// inUse above total; in-progress sessions keep their channels and the
// pool simply refuses admissions until releases catch up.
func (p *ChannelPool) Grow(delta int) int {
	if p.total+delta < p.guard {
		delta = p.guard - p.total
	}
	p.total += delta
	return delta
}

// AdmitNew takes a channel for a new session, failing with ErrNoChannels
// when only guard channels remain. A refusal is a normal outcome under
// load, so it returns the bare sentinel and allocates nothing.
func (p *ChannelPool) AdmitNew() error {
	if p.inUse >= p.total-p.guard {
		p.Blocked++
		return ErrNoChannels
	}
	p.inUse++
	return nil
}

// AdmitHandoff takes a channel for an incoming handoff, allowed to dip
// into the guard reserve; it fails with the bare ErrNoChannels when every
// channel is busy.
func (p *ChannelPool) AdmitHandoff() error {
	if p.inUse >= p.total {
		p.Dropped++
		return ErrNoChannels
	}
	p.inUse++
	return nil
}

// Release returns one channel.
func (p *ChannelPool) Release() error {
	if p.inUse == 0 {
		return ErrNotGranted
	}
	p.inUse--
	return nil
}

// BandwidthPool accounts link-level bandwidth for admitted flows in bits
// per second.
type BandwidthPool struct {
	capacity float64
	used     float64
}

// NewBandwidthPool returns a pool with the given capacity (bps).
func NewBandwidthPool(capacityBps float64) *BandwidthPool {
	if capacityBps < 0 {
		capacityBps = 0
	}
	return &BandwidthPool{capacity: capacityBps}
}

// Capacity returns the configured capacity in bps.
func (b *BandwidthPool) Capacity() float64 { return b.capacity }

// Used returns the reserved bandwidth in bps.
func (b *BandwidthPool) Used() float64 { return b.used }

// Available returns the unreserved bandwidth in bps.
func (b *BandwidthPool) Available() float64 { return b.capacity - b.used }

// Grow adjusts capacity by delta bps (negative shrinks, clamped at
// zero capacity) and returns the delta actually applied. A shrink can
// leave used above capacity; existing reservations survive and new
// ones are refused until releases catch up.
func (b *BandwidthPool) Grow(delta float64) float64 {
	if b.capacity+delta < 0 {
		delta = -b.capacity
	}
	b.capacity += delta
	return delta
}

// Reserve takes bps from the pool, failing with the bare ErrNoBandwidth
// when it does not fit.
func (b *BandwidthPool) Reserve(bps float64) error {
	if bps < 0 {
		bps = 0
	}
	if b.used+bps > b.capacity {
		return ErrNoBandwidth
	}
	b.used += bps
	return nil
}

// Release returns bps to the pool.
func (b *BandwidthPool) Release(bps float64) error {
	if bps < 0 {
		bps = 0
	}
	if bps > b.used {
		return ErrNotGranted
	}
	b.used -= bps
	return nil
}

// Session is one admitted flow's reservation; release it exactly once.
type Session struct {
	cell  *CellResources
	bps   float64
	class packet.Class
	done  bool
}

// Release returns the session's channel and bandwidth.
func (s *Session) Release() error {
	if s == nil || s.done {
		return ErrNotGranted
	}
	s.done = true
	if err := s.cell.Channels.Release(); err != nil {
		return err
	}
	return s.cell.Bandwidth.Release(s.bps)
}

// BPS returns the session's reserved bandwidth.
func (s *Session) BPS() float64 { return s.bps }

// Class returns the traffic class recorded at admission (zero when the
// request carried none). The degradation ladder's preemption policy
// selects victims by it.
func (s *Session) Class() packet.Class { return s.class }

// CellResources bundles one base station's admission state.
type CellResources struct {
	Channels  *ChannelPool
	Bandwidth *BandwidthPool
}

// NewCellResources builds resources with the given shape.
func NewCellResources(channels, guard int, capacityBps float64) *CellResources {
	return &CellResources{
		Channels:  NewChannelPool(channels, guard),
		Bandwidth: NewBandwidthPool(capacityBps),
	}
}

// Request asks for admission of one flow.
type Request struct {
	// BPS is the bandwidth the flow needs.
	BPS float64
	// Handoff marks an in-progress session arriving from another cell,
	// which may use guard channels.
	Handoff bool
	// Class is the flow's dominant traffic class. Admission itself
	// ignores it; the granted session records it so degradation policy
	// can later rank preemption victims. Zero means unclassified.
	Class packet.Class
}

// Admit grants or refuses a request atomically (no partial grants).
func (c *CellResources) Admit(req Request) (*Session, error) {
	var chErr error
	if req.Handoff {
		chErr = c.Channels.AdmitHandoff()
	} else {
		chErr = c.Channels.AdmitNew()
	}
	if chErr != nil {
		return nil, chErr
	}
	if err := c.Bandwidth.Reserve(req.BPS); err != nil {
		// Roll back the channel so refusal leaves no residue.
		if rerr := c.Channels.Release(); rerr != nil {
			return nil, fmt.Errorf("%w (rollback failed: %v)", err, rerr)
		}
		return nil, err
	}
	return &Session{cell: c, bps: req.BPS, class: req.Class}, nil
}

// CanAdmit reports whether a request would succeed, without side effects.
// The paper's handoff decision probes candidate tiers with this.
func (c *CellResources) CanAdmit(req Request) bool {
	if req.Handoff {
		if c.Channels.InUse() >= c.Channels.Total() {
			return false
		}
	} else if c.Channels.InUse() >= c.Channels.Total()-c.Channels.guard {
		return false
	}
	return c.Bandwidth.Available() >= req.BPS
}

// SwitchBuffer is the resource-switching packet buffer: during a handoff,
// packets that would have been lost in flight are parked here and drained
// to the new path once the handoff completes. A bounded buffer models
// finite RSMC memory; overflow counts as handoff loss.
type SwitchBuffer struct {
	limit    int
	pkts     []*packet.Packet
	Overflow uint64
}

// NewSwitchBuffer returns a buffer holding at most limit packets
// (limit <= 0 means unbounded).
func NewSwitchBuffer(limit int) *SwitchBuffer {
	return &SwitchBuffer{limit: limit}
}

// Buffer parks a packet, reporting false on overflow.
func (b *SwitchBuffer) Buffer(p *packet.Packet) bool {
	if b.limit > 0 && len(b.pkts) >= b.limit {
		b.Overflow++
		return false
	}
	b.pkts = append(b.pkts, p)
	return true
}

// Len returns the buffered packet count.
func (b *SwitchBuffer) Len() int { return len(b.pkts) }

// Drain delivers all buffered packets to deliver in arrival order and
// empties the buffer.
func (b *SwitchBuffer) Drain(deliver func(*packet.Packet)) int {
	n := len(b.pkts)
	for _, p := range b.pkts {
		deliver(p)
	}
	b.pkts = b.pkts[:0]
	return n
}

// Discard empties the buffer without delivery (handoff aborted), returning
// the number discarded. The packets are returned to the packet free list:
// a discarded packet was absorbed by the buffering station and has no
// other owner, so dropping the references without Release would leak from
// the pool's point of view.
func (b *SwitchBuffer) Discard() int {
	n := len(b.pkts)
	for _, p := range b.pkts {
		packet.Release(p)
	}
	b.pkts = b.pkts[:0]
	return n
}
