package packet

import (
	"math/rand/v2"
	"testing"
)

// mapDedup is the map-plus-FIFO-slice filter Dedup replaced, kept as the
// reference model: it remembers the last cap distinct keys in first-seen
// order.
type mapDedup struct {
	seen map[uint64]bool
	fifo []uint64
	cap  int
}

func (d *mapDedup) duplicate(flow, seq uint32) bool {
	key := uint64(flow)<<32 | uint64(seq)
	if d.seen[key] {
		return true
	}
	if d.seen == nil {
		d.seen = make(map[uint64]bool, 64)
	}
	d.seen[key] = true
	d.fifo = append(d.fifo, key)
	if len(d.fifo) > d.cap {
		delete(d.seen, d.fifo[0])
		d.fifo = d.fifo[1:]
	}
	return false
}

// Dedup must agree with the map model on every call: random keys drawn
// from a pool a little larger than the capacity (so keys are evicted and
// then return), runs of consecutive sequence numbers (the data path's
// real pattern, and the hardest clustering for the probe table), and the
// extreme keys (0,0) and (0xFFFFFFFF,0xFFFFFFFF).
func TestDedupMatchesMapModel(t *testing.T) {
	for _, capacity := range []int{1, 3, 16, 1024} {
		r := rand.New(rand.NewPCG(uint64(capacity), 7))
		got := NewDedup(capacity)
		want := &mapDedup{cap: capacity}
		pool := uint32(capacity + capacity/2 + 2)
		calls := 0
		check := func(flow, seq uint32) {
			t.Helper()
			calls++
			if g, w := got.Duplicate(flow, seq), want.duplicate(flow, seq); g != w {
				t.Fatalf("cap %d call %d (%#x,%#x): Duplicate=%v, model %v", capacity, calls, flow, seq, g, w)
			}
			if got.n != len(want.fifo) {
				t.Fatalf("cap %d call %d: %d keys remembered, model %d", capacity, calls, got.n, len(want.fifo))
			}
		}
		for calls < 100*capacity+20000 {
			switch r.IntN(10) {
			case 0:
				check(0, 0)
			case 1:
				check(0xFFFFFFFF, 0xFFFFFFFF)
			case 2:
				flow, seq := r.Uint32N(3), r.Uint32()
				for k := r.IntN(2 * capacity); k >= 0; k-- {
					check(flow, seq)
					seq++
				}
			default:
				check(r.Uint32N(4), r.Uint32N(pool))
			}
		}
	}
}

// Once the ring has grown to capacity, recording and checking keys must
// not allocate.
func TestDedupAllocFreeWhenWarm(t *testing.T) {
	d := NewDedup(1024)
	seq := uint32(0)
	for ; seq < 4096; seq++ {
		d.Duplicate(1, seq)
	}
	avg := testing.AllocsPerRun(2000, func() {
		d.Duplicate(1, seq)
		d.Duplicate(1, seq-1)
		seq++
	})
	if avg != 0 {
		t.Fatalf("warm Duplicate allocates %.1f allocs/op, want 0", avg)
	}
}

// The filter's footprint follows what it has seen, up to its bound.
func TestDedupGrowsLazily(t *testing.T) {
	d := NewDedup(1024)
	if len(d.keys) != 0 || len(d.table) != 0 {
		t.Fatalf("fresh filter holds %d keys / %d cells, want none", len(d.keys), len(d.table))
	}
	for seq := uint32(0); seq < 5; seq++ {
		d.Duplicate(9, seq)
	}
	if len(d.keys) != 8 || len(d.table) != 16 {
		t.Fatalf("after 5 keys: ring %d, table %d; want 8 and 16", len(d.keys), len(d.table))
	}
	for seq := uint32(5); seq < 10000; seq++ {
		d.Duplicate(9, seq)
	}
	if len(d.keys) != 1024 || len(d.table) != 2048 {
		t.Fatalf("at capacity: ring %d, table %d; want 1024 and 2048", len(d.keys), len(d.table))
	}
}

func TestNewDedupRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1, maxDedupCap + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDedup(%d) did not panic", c)
				}
			}()
			NewDedup(c)
		}()
	}
}
