package multitier

import (
	"time"

	"repro/internal/addr"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// Record is one (MN, via-cell) entry in a cell table: to reach MN, go
// toward Via (a child cell, or the holding cell itself when it serves the
// MN directly).
type Record struct {
	MN      addr.IP
	Via     topology.CellID
	Expires time.Duration
	Seq     uint32 // last location sequence accepted, guards reordering
}

// Table is one soft-state cell table (§3.1): "All records in micro_table
// and macro_table have a specific time-limitation. Over the limit time …
// the location record of the MN will be erased."
type Table struct {
	timeout time.Duration
	sched   *simtime.Scheduler
	entries map[addr.IP]Record
}

// NewTable returns a table whose records live for timeout per refresh.
func NewTable(timeout time.Duration, sched *simtime.Scheduler) *Table {
	return &Table{timeout: timeout, sched: sched, entries: make(map[addr.IP]Record)}
}

// Update installs or refreshes the record for mn, ignoring stale sequence
// numbers so a delayed old Location Message cannot clobber a newer one.
// It reports whether the record was applied.
func (t *Table) Update(mn addr.IP, via topology.CellID, seq uint32) bool {
	if old, ok := t.entries[mn]; ok && old.Expires > t.sched.Now() && seqBefore(seq, old.Seq) {
		return false
	}
	t.entries[mn] = Record{MN: mn, Via: via, Expires: t.sched.Now() + t.timeout, Seq: seq}
	return true
}

// seqBefore reports whether a < b in wrap-around sequence space.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Lookup returns the live record for mn.
func (t *Table) Lookup(mn addr.IP) (Record, bool) {
	r, ok := t.entries[mn]
	if !ok {
		return Record{}, false
	}
	if r.Expires <= t.sched.Now() {
		delete(t.entries, mn)
		return Record{}, false
	}
	return r, true
}

// Delete erases the record for mn (Delete Location Message).
func (t *Table) Delete(mn addr.IP) { delete(t.entries, mn) }

// CellTables bundles the paper's two tables. Micro-cell stations hold only
// a micro_table; macro and root stations hold both, and lookups search the
// micro_table first ("Macro-cell will search its micro_table first, if not
// find, its macro_table will be searched", §3.1).
type CellTables struct {
	Micro *Table
	Macro *Table // nil on micro/pico stations
}

// NewCellTables builds tables for a station of the given tier.
func NewCellTables(tier topology.Tier, timeout time.Duration, sched *simtime.Scheduler) *CellTables {
	ct := &CellTables{Micro: NewTable(timeout, sched)}
	if tier == topology.TierMacro || tier == topology.TierRoot {
		ct.Macro = NewTable(timeout, sched)
	}
	return ct
}

// Lookup searches micro_table then macro_table.
func (ct *CellTables) Lookup(mn addr.IP) (Record, bool) {
	if r, ok := ct.Micro.Lookup(mn); ok {
		return r, true
	}
	if ct.Macro != nil {
		return ct.Macro.Lookup(mn)
	}
	return Record{}, false
}

// Update routes the record to the right table: records learned for MNs
// served by macro-tier air go in macro_table, everything else in
// micro_table.
func (ct *CellTables) Update(mn addr.IP, via topology.CellID, seq uint32, servingTier topology.Tier) bool {
	if ct.Macro != nil && (servingTier == topology.TierMacro || servingTier == topology.TierRoot) {
		// Keep at most one copy: a macro-served MN leaves no stale
		// micro_table record behind.
		ct.Micro.Delete(mn)
		return ct.Macro.Update(mn, via, seq)
	}
	if ct.Macro != nil {
		ct.Macro.Delete(mn)
	}
	return ct.Micro.Update(mn, via, seq)
}

// Delete erases the MN from both tables.
func (ct *CellTables) Delete(mn addr.IP) {
	ct.Micro.Delete(mn)
	if ct.Macro != nil {
		ct.Macro.Delete(mn)
	}
}
