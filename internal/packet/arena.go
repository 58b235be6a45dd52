package packet

// Arena is a single-goroutine packet free list for one scenario run.
// Every core.Run executes on one goroutine, so an arena needs no
// synchronisation at all: Get/Put are a slice pop/push, cheaper than the
// global sync.Pool and — at very high worker counts — free of any shared
// state between scenarios. This closes the ROADMAP item on the
// process-global pool: the global pool stays the default for existing
// callers, and scale runs opt in per scenario.
//
// Packets drawn from an arena remember it (see Packet.alloc): Release,
// Clone and Encapsulate all route through the originating arena, so a
// scenario's data plane keeps cycling its own storage even through
// Mobile IP tunnels and bicast duplication. The arena's free list grows
// to the scenario's peak in-flight packet count and no further.
//
// An Arena must not be shared across goroutines; each scenario (or
// worker) owns its own.
type Arena struct {
	free []*Packet
	// allocated counts packets the arena ever created fresh.
	allocated uint64
	// reused counts Gets served from the free list.
	reused uint64
	// live counts packets currently checked out; highWater its maximum —
	// the in-flight occupancy gauge the observability sampler reads.
	live      uint64
	highWater uint64
}

var _ Allocator = (*Arena)(nil)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get implements Allocator.
func (a *Arena) Get() *Packet {
	a.live++
	if a.live > a.highWater {
		a.highWater = a.live
	}
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.reused++
		return p
	}
	a.allocated++
	return new(Packet)
}

// Put implements Allocator.
func (a *Arena) Put(p *Packet) {
	if a.live > 0 {
		a.live--
	}
	a.free = append(a.free, p)
}

// Reused returns the number of Gets served from the free list. Only
// tests read it: the packet and qos tests use it as the recycling oracle.
//
//mmlint:testref recycling oracle for the packet and qos arena tests
func (a *Arena) Reused() uint64 { return a.reused }

// FreeLen returns the current free-list length. Only tests read it: the
// packet and qos tests use it as the recycling oracle.
//
//mmlint:testref recycling oracle for the packet and qos arena tests
func (a *Arena) FreeLen() int { return len(a.free) }

// Live returns the number of packets currently checked out.
func (a *Arena) Live() uint64 { return a.live }

// HighWater returns the peak simultaneous checked-out packet count.
func (a *Arena) HighWater() uint64 { return a.highWater }
