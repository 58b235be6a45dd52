package multitier

import (
	"repro/internal/addr"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Accessors, rollups and MN actions no run path calls: the multi-tier
// tests drive mobiles and inspect stations, tables and the directory
// through them.

// Profiles returns the number of registered MNs.
func (d *Directory) Profiles() int { return len(d.profiles) }

// Node returns the underlying network node.
func (m *Mobile) Node() *netsim.Node { return m.node }

// Home returns the MN's permanent address.
func (m *Mobile) Home() addr.IP { return m.profile.Home }

// ServingCell returns the current cell, NoCell when detached.
func (m *Mobile) ServingCell() topology.CellID { return m.servingCell }

// State returns active or idle.
func (m *Mobile) State() HostState { return m.state }

// Tables exposes the cell tables.
func (s *Station) Tables() *CellTables { return s.tables }

// AnchorAddr returns the root's care-of address (unspecified when not an
// anchor).
func (s *Station) AnchorAddr() addr.IP { return s.anchorAddr }

// Len returns the number of live records.
func (t *Table) Len() int {
	n := 0
	now := t.sched.Now()
	for _, r := range t.slots {
		if r.MN != addr.Unspecified && r.Expires > now {
			n++
		}
	}
	return n
}

// Marshal renders the message to fresh wire bytes; a Mobile writes its
// requests into its pending record's buffer instead.
func (m *HandoffRequest) Marshal() []byte {
	b := new([handoffReqSize]byte)
	m.marshalTo(b)
	return b[:]
}
