package cellularip

import (
	"time"

	"repro/internal/addr"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Mapping is one downlink next-hop for a host in a soft-state cache: either
// a child base station (Via) or the air interface of this station
// (Air == true, Via == nil).
type Mapping struct {
	Via     *netsim.Node
	Air     bool
	Expires time.Duration
}

func (m Mapping) sameHop(o Mapping) bool { return m.Air == o.Air && m.Via == o.Via }

// SoftCache is a per-station soft-state location cache: host → downlink
// mappings with per-entry expiry. It backs both the routing cache
// (short timeout, refreshed by route-updates) and the paging cache (long
// timeout, refreshed by route- and paging-updates).
//
// Hosts sit by value in an open-addressed array whose length is a power
// of two, like multitier.Table: a host's home slot is its address under
// the mask — an identity hash, since host addresses are dense —
// collisions probe linearly, a slot whose host is the unspecified
// address is empty (so that address is never cached), deletion shifts
// the rest of the probe chain back, and the array doubles before it is
// three quarters full. A slot holds the one mapping a route-update
// leaves; a host that gathers more — a semisoft handoff's bicast — keeps
// all of them, in order, in spill until a Replace collapses them again,
// and spill slices are recycled through free. Expiry is lazy: expired
// mappings are dropped by the next Add or Lookup of their host, and
// Lookup erases a host with none left. Every new host a Replace or Add
// inserts also sweeps the next sweepSlots slots for hosts with none left
// and erases them, so a table that only refresh traffic touches — a
// routing cache in a run without data, which never looks a host up — is
// sized by the hosts alive lately, not by every host that ever passed.
// Erasing such a host is what its next Lookup would do, so no answer
// changes, and refreshing a host already present sweeps nothing.
type SoftCache struct {
	timeout time.Duration
	sched   *simtime.Scheduler
	slots   []cacheSlot
	used    int // slots holding a host
	spill   map[addr.IP][]Mapping
	free    [][]Mapping // emptied spill slices
	cursor  int         // the next slot the sweep examines
}

// cacheSlot is one host's entry, 32 bytes: n (0 or 1) mappings in maps,
// or all of them in the cache's spill when spilled.
type cacheSlot struct {
	host    addr.IP
	n       uint8
	spilled bool
	maps    [1]Mapping
}

// minCacheSlots is a cache's length at its first host.
const minCacheSlots = 8

// sweepSlots is how many slots each insertion sweeps. The cursor passes
// every slot once per len(slots)/sweepSlots insertions, so a host that
// expired stays at most that many insertions, and the array stops
// growing at a small multiple of the hosts alive at once.
const sweepSlots = 4

// NewSoftCache returns a cache whose entries live for timeout after each
// refresh.
func NewSoftCache(timeout time.Duration, sched *simtime.Scheduler) *SoftCache {
	return &SoftCache{timeout: timeout, sched: sched}
}

// Replace installs m as the only mapping for host — the regular
// route-update semantics (one path per host).
//
//mmlint:noalloc
func (c *SoftCache) Replace(host addr.IP, m Mapping) {
	if host == addr.Unspecified {
		return
	}
	m.Expires = c.sched.Now() + c.timeout
	s := c.slot(host)
	if s.spilled {
		c.unspill(s)
	}
	s.maps[0] = m
	s.n = 1
}

// sweep examines the next sweepSlots slots from the cursor and erases
// every host whose mappings have all expired. Backward-shift deletion
// only moves hosts toward the hole it closes, so the slot just emptied
// is examined again and no host slips behind the cursor.
//
//mmlint:noalloc
func (c *SoftCache) sweep() {
	mask := len(c.slots) - 1
	now := c.sched.Now()
	for k := 0; k < sweepSlots; k++ {
		i := c.cursor & mask
		if s := &c.slots[i]; s.host != addr.Unspecified && !anyLive(c.mappings(s), now) {
			c.deleteAt(i)
			continue
		}
		c.cursor = i + 1
	}
}

// anyLive reports whether any of maps is still live at now.
//
//mmlint:noalloc
func anyLive(maps []Mapping, now time.Duration) bool {
	for _, m := range maps {
		if m.Expires > now {
			return true
		}
	}
	return false
}

// Add installs m alongside existing mappings (semisoft semantics),
// refreshing instead when the same hop is already present.
func (c *SoftCache) Add(host addr.IP, m Mapping) {
	if host == addr.Unspecified {
		return
	}
	m.Expires = c.sched.Now() + c.timeout
	s := c.slot(host)
	live := c.live(s)
	for i := range live {
		if live[i].sameHop(m) {
			live[i].Expires = m.Expires
			return
		}
	}
	switch {
	case s.spilled:
		c.spill[host] = append(live, m)
	case s.n == 0:
		s.maps[0] = m
		s.n = 1
	default:
		if c.spill == nil {
			c.spill = make(map[addr.IP][]Mapping)
		}
		var maps []Mapping
		if k := len(c.free); k > 0 {
			maps, c.free = c.free[k-1], c.free[:k-1]
		}
		c.spill[host] = append(maps, s.maps[0], m)
		s.maps[0] = Mapping{}
		s.n = 0
		s.spilled = true
	}
}

// unspill empties spilled host s's spill entry, keeping its slice for
// reuse.
//
//mmlint:noalloc
func (c *SoftCache) unspill(s *cacheSlot) {
	c.free = append(c.free, c.spill[s.host][:0]) //mmlint:alloc-ok free grows to the most hosts ever spilled at once
	delete(c.spill, s.host)
	s.spilled = false
}

// Lookup returns the live mappings for host, pruning expired ones. The
// slice aliases the cache: it is valid until the cache's next Replace,
// Add, Lookup or Clear.
//
//mmlint:noalloc
func (c *SoftCache) Lookup(host addr.IP) []Mapping {
	if host == addr.Unspecified {
		return nil
	}
	i := c.find(host)
	if i < 0 {
		return nil
	}
	live := c.live(&c.slots[i])
	if len(live) == 0 {
		c.deleteAt(i)
		return nil
	}
	return live
}

// live drops s's expired mappings, keeping the order of the rest, and
// returns them.
//
//mmlint:noalloc
func (c *SoftCache) live(s *cacheSlot) []Mapping {
	all := c.mappings(s)
	now := c.sched.Now()
	live := all[:0]
	for _, m := range all {
		if m.Expires > now {
			live = append(live, m) //mmlint:alloc-ok compacts into its own prefix, never grows
		}
	}
	if s.spilled {
		c.spill[s.host] = live
	} else {
		s.n = uint8(len(live))
	}
	return live
}

// mappings returns s's mappings, expired ones included.
//
//mmlint:noalloc
func (c *SoftCache) mappings(s *cacheSlot) []Mapping {
	if s.spilled {
		return c.spill[s.host]
	}
	return s.maps[:s.n]
}

// Clear wipes every entry — a crashed station loses its soft state.
func (c *SoftCache) Clear() {
	clear(c.slots)
	c.used = 0
	clear(c.spill)
}

// find returns the slot holding host, or -1.
//
//mmlint:noalloc
func (c *SoftCache) find(host addr.IP) int {
	if len(c.slots) == 0 {
		return -1
	}
	mask := len(c.slots) - 1
	for i := int(host) & mask; ; i = (i + 1) & mask {
		switch c.slots[i].host {
		case host:
			return i
		case addr.Unspecified:
			return -1
		}
	}
}

// slot returns host's slot, claiming an empty one (no mappings) when the
// host has none; a claim sweeps first.
//
//mmlint:noalloc
func (c *SoftCache) slot(host addr.IP) *cacheSlot {
	if i := c.find(host); i >= 0 {
		return &c.slots[i]
	}
	if len(c.slots) > 0 {
		c.sweep()
	}
	if 4*(c.used+1) > 3*len(c.slots) {
		c.grow()
	}
	c.used++
	return c.insert(host)
}

// insert claims the first empty slot of host's probe chain, which must
// not hold host already, and returns it with its host set.
//
//mmlint:noalloc
func (c *SoftCache) insert(host addr.IP) *cacheSlot {
	mask := len(c.slots) - 1
	i := int(host) & mask
	for c.slots[i].host != addr.Unspecified {
		i = (i + 1) & mask
	}
	s := &c.slots[i]
	s.host = host
	return s
}

// grow doubles the array (or makes the first one) and re-inserts every
// host.
func (c *SoftCache) grow() {
	old := c.slots
	c.slots = make([]cacheSlot, max(2*len(old), minCacheSlots)) //mmlint:alloc-ok cache growth is amortized doubling
	for k := range old {
		if old[k].host != addr.Unspecified {
			*c.insert(old[k].host) = old[k]
		}
	}
}

// deleteAt empties slot i and closes the gap, exactly like
// multitier.Table's deleteAt.
//
//mmlint:noalloc
func (c *SoftCache) deleteAt(i int) {
	if c.slots[i].spilled {
		c.unspill(&c.slots[i])
	}
	mask := len(c.slots) - 1
	for j := (i + 1) & mask; c.slots[j].host != addr.Unspecified; j = (j + 1) & mask {
		if home := int(c.slots[j].host) & mask; (j-home)&mask >= (j-i)&mask {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = cacheSlot{}
	c.used--
}
