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
	Seq     uint32 // last location sequence accepted, guards reordering
	Via     topology.CellID
	Expires time.Duration
}

// Table is one soft-state cell table (§3.1): "All records in micro_table
// and macro_table have a specific time-limitation. Over the limit time …
// the location record of the MN will be erased."
//
// Records sit by value in an open-addressed array whose length is a
// power of two. An MN's home slot is its address under the mask — an
// identity hash, since MN home addresses are dense (homeNet.Nth(10+i)),
// so a table holding every MN, as the root's does, has no collisions.
// Collisions probe linearly, a record with MN == 0 marks an empty slot,
// deletion shifts the rest of the probe chain back (no tombstones), and
// the array doubles before it is three quarters full. Expiry stays lazy:
// an expired record is erased by the Lookup that finds it, replaced by
// an Update, and otherwise kept like a live one.
type Table struct {
	timeout time.Duration
	sched   *simtime.Scheduler
	slots   []Record
	used    int // slots holding a record, live or expired
}

// minTableSlots is a table's length at its first record.
const minTableSlots = 8

// NewTable returns a table whose records live for timeout per refresh.
func NewTable(timeout time.Duration, sched *simtime.Scheduler) *Table {
	return &Table{timeout: timeout, sched: sched}
}

// find returns the slot holding mn's record, or -1. mn must not be the
// unspecified address, which marks empty slots.
//
//mmlint:noalloc
func (t *Table) find(mn addr.IP) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := int(mn) & mask; ; i = (i + 1) & mask {
		switch t.slots[i].MN {
		case mn:
			return i
		case addr.Unspecified:
			return -1
		}
	}
}

// Update installs or refreshes the record for mn, ignoring stale sequence
// numbers so a delayed old Location Message cannot clobber a newer one.
// It reports whether the record was applied; the unspecified address is
// never applied.
//
//mmlint:noalloc
func (t *Table) Update(mn addr.IP, via topology.CellID, seq uint32) bool {
	if mn == addr.Unspecified {
		return false
	}
	now := t.sched.Now()
	var r *Record
	if i := t.find(mn); i >= 0 {
		r = &t.slots[i]
		if r.Expires > now && seqBefore(seq, r.Seq) {
			return false
		}
	} else {
		if 4*(t.used+1) > 3*len(t.slots) {
			t.grow()
		}
		r = t.insert(mn)
		t.used++
	}
	r.Seq = seq
	r.Via = via
	r.Expires = now + t.timeout
	return true
}

// insert claims the first empty slot of mn's probe chain, which must not
// hold mn already, and returns it with its MN set.
//
//mmlint:noalloc
func (t *Table) insert(mn addr.IP) *Record {
	mask := len(t.slots) - 1
	i := int(mn) & mask
	for t.slots[i].MN != addr.Unspecified {
		i = (i + 1) & mask
	}
	r := &t.slots[i]
	r.MN = mn
	return r
}

// grow doubles the array (or makes the first one) and re-inserts every
// record.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]Record, max(2*len(old), minTableSlots)) //mmlint:alloc-ok table growth is amortized doubling
	for k := range old {
		if old[k].MN != addr.Unspecified {
			*t.insert(old[k].MN) = old[k]
		}
	}
}

// seqBefore reports whether a < b in wrap-around sequence space.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// Lookup returns the live record for mn.
//
//mmlint:noalloc
func (t *Table) Lookup(mn addr.IP) (Record, bool) {
	if mn == addr.Unspecified {
		return Record{}, false
	}
	i := t.find(mn)
	if i < 0 {
		return Record{}, false
	}
	if r := &t.slots[i]; r.Expires > t.sched.Now() {
		return *r, true
	}
	t.deleteAt(i)
	return Record{}, false
}

// Delete erases the record for mn (Delete Location Message).
//
//mmlint:noalloc
func (t *Table) Delete(mn addr.IP) {
	if mn == addr.Unspecified {
		return
	}
	if i := t.find(mn); i >= 0 {
		t.deleteAt(i)
	}
}

// deleteAt empties slot i and closes the gap: each later record of the
// probe chain whose home slot does not lie cyclically after the gap moves
// back into it, so every record stays reachable from its home slot with
// no empty slot in between.
//
//mmlint:noalloc
func (t *Table) deleteAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].MN != addr.Unspecified; j = (j + 1) & mask {
		if home := int(t.slots[j].MN) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = Record{}
	t.used--
}

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
