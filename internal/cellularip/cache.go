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
// (short timeout, refreshed by data and route-updates) and the paging
// cache (long timeout, refreshed by paging-updates).
type SoftCache struct {
	timeout time.Duration
	sched   *simtime.Scheduler
	entries map[addr.IP][]Mapping
}

// NewSoftCache returns a cache whose entries live for timeout after each
// refresh.
func NewSoftCache(timeout time.Duration, sched *simtime.Scheduler) *SoftCache {
	return &SoftCache{
		timeout: timeout,
		sched:   sched,
		entries: make(map[addr.IP][]Mapping),
	}
}

// Replace installs m as the only mapping for host — the regular
// route-update semantics (one path per host). Like Add, it rewrites the
// host's backing array in place, so a slice returned by an earlier
// Lookup must not be held across a Replace for the same host.
func (c *SoftCache) Replace(host addr.IP, m Mapping) {
	m.Expires = c.sched.Now() + c.timeout
	c.entries[host] = append(c.entries[host][:0], m)
}

// Add installs m alongside existing mappings (semisoft semantics),
// refreshing instead when the same hop is already present.
func (c *SoftCache) Add(host addr.IP, m Mapping) {
	m.Expires = c.sched.Now() + c.timeout
	live := c.liveMappings(host)
	for i := range live {
		if live[i].sameHop(m) {
			live[i].Expires = m.Expires
			c.entries[host] = live
			return
		}
	}
	c.entries[host] = append(live, m)
}

// Lookup returns the live mappings for host, pruning expired ones.
func (c *SoftCache) Lookup(host addr.IP) []Mapping {
	live := c.liveMappings(host)
	if len(live) == 0 {
		delete(c.entries, host)
		return nil
	}
	c.entries[host] = live
	return live
}

func (c *SoftCache) liveMappings(host addr.IP) []Mapping {
	now := c.sched.Now()
	all := c.entries[host]
	live := all[:0]
	for _, m := range all {
		if m.Expires > now {
			live = append(live, m)
		}
	}
	return live
}

// Clear wipes every entry — a crashed station loses its soft state.
func (c *SoftCache) Clear() { clear(c.entries) }
