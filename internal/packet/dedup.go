package packet

import "fmt"

// Dedup is a receiver's duplicate filter. Bicasting during a handoff and
// page floods can deliver a data packet more than once, and the MN must
// pass each (flow, seq) up once. Dedup remembers the last cap distinct
// keys in first-seen order: a key seen again while it is remembered is a
// duplicate and does not refresh its age, and the next new key past cap
// evicts the oldest.
//
// Keys sit in a ring that grows lazily by doubling up to cap, so an MN
// that has received a few packets holds a few keys. Membership is a
// linear-probing table of ring positions, at most half full, with
// backward-shift deletion so evictions leave no tombstones. Once the
// ring is full nothing allocates. At cap 1024 a filter holds 8 KiB of
// keys and a 4 KiB table.
type Dedup struct {
	keys  []uint64 // ring of remembered keys; the oldest is at head once full
	head  int      // ring position of the oldest key, once n == cap
	n     int      // remembered keys
	table []uint16 // ring position + 1 per probe cell; 0 marks an empty cell
	shift uint     // 64 - log2(len(table)): home cells take the hash's top bits
	cap   int
}

// maxDedupCap is the largest capacity a uint16 table cell can address.
const maxDedupCap = 1<<16 - 1

// NewDedup returns an empty filter remembering up to capacity keys.
func NewDedup(capacity int) *Dedup {
	if capacity < 1 || capacity > maxDedupCap {
		panic(fmt.Sprintf("packet: dedup capacity %d outside [1, %d]", capacity, maxDedupCap))
	}
	return &Dedup{cap: capacity}
}

// Duplicate records (flow, seq) and reports whether it was already
// remembered.
//
//mmlint:noalloc
func (d *Dedup) Duplicate(flow, seq uint32) bool {
	key := uint64(flow)<<32 | uint64(seq)
	if d.find(key) >= 0 {
		return true
	}
	if d.n < d.cap {
		if d.n == len(d.keys) {
			d.grow()
		}
		d.keys[d.n] = key
		d.place(d.n)
		d.n++
		return false
	}
	d.remove(d.find(d.keys[d.head]))
	d.keys[d.head] = key
	d.place(d.head)
	d.head = (d.head + 1) % d.cap
	return false
}

// home returns key's preferred table cell (Fibonacci hashing).
//
//mmlint:noalloc
func (d *Dedup) home(key uint64) int { return int((key * 0x9E3779B97F4A7C15) >> d.shift) }

// find returns the table cell holding key, or -1.
//
//mmlint:noalloc
func (d *Dedup) find(key uint64) int {
	mask := len(d.table) - 1
	if mask < 0 {
		return -1
	}
	for c := d.home(key); d.table[c] != 0; c = (c + 1) & mask {
		if d.keys[d.table[c]-1] == key {
			return c
		}
	}
	return -1
}

// place indexes the key at ring position pos.
//
//mmlint:noalloc
func (d *Dedup) place(pos int) {
	mask := len(d.table) - 1
	c := d.home(d.keys[pos])
	for d.table[c] != 0 {
		c = (c + 1) & mask
	}
	d.table[c] = uint16(pos + 1)
}

// remove empties table cell c, shifting later cells of its probe run back
// so every remaining key stays reachable from its home cell.
//
//mmlint:noalloc
func (d *Dedup) remove(c int) {
	mask := len(d.table) - 1
	for j := (c + 1) & mask; d.table[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole at c only if c lies on its probe
		// path, i.e. c is no nearer to j than the key's home cell.
		if h := d.home(d.keys[d.table[j]-1]); (j-h)&mask >= (j-c)&mask {
			d.table[c] = d.table[j]
			c = j
		}
	}
	d.table[c] = 0
}

// grow doubles the ring (up to cap) and rebuilds the table at twice the
// ring size or more. The ring has not wrapped yet, so positions hold.
//
//mmlint:noalloc
func (d *Dedup) grow() {
	size := min(max(2*len(d.keys), 8), d.cap)
	keys := make([]uint64, size) //mmlint:alloc-ok lazy growth, doubling up to cap
	copy(keys, d.keys)
	d.keys = keys
	bits := uint(1)
	for 1<<bits < 2*size {
		bits++
	}
	d.table = make([]uint16, 1<<bits) //mmlint:alloc-ok rebuilt with the ring, doubling up to cap
	d.shift = 64 - bits
	for pos := 0; pos < d.n; pos++ {
		d.place(pos)
	}
}
