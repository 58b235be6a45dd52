package packet

import (
	"math/rand/v2"
	"testing"
)

// windowModel states the window rule over plain maps: the keys seen,
// and the newest seq per flow. A seq 64 or more behind its flow's newest
// is passed up and not recorded; any other seq is a duplicate iff its
// key was seen before.
type windowModel struct {
	seen   map[uint64]bool
	newest map[uint32]uint32
}

func (m *windowModel) duplicate(flow, seq uint32) bool {
	newest, known := m.newest[flow]
	if known && seq < newest && newest-seq >= 64 {
		return false
	}
	key := uint64(flow)<<32 | uint64(seq)
	if m.seen[key] {
		return true
	}
	m.seen[key] = true
	if !known || seq > newest {
		m.newest[flow] = seq
	}
	return false
}

// Dedup must agree with the model on every call: in-order runs, repeats
// and reorder up to 63 behind the newest, packets 64 or more behind,
// jumps past the whole window, several flows interleaved, and the
// extreme keys (0,0), (0,0xFFFFFFFF) and (0xFFFFFFFF,0xFFFFFFFF).
func TestDedupMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 7))
	var got Dedup
	want := &windowModel{seen: map[uint64]bool{}, newest: map[uint32]uint32{}}
	calls := 0
	check := func(flow, seq uint32) {
		t.Helper()
		calls++
		if g, w := got.Duplicate(flow, seq), want.duplicate(flow, seq); g != w {
			t.Fatalf("call %d (%#x,%#x): Duplicate=%v, model %v", calls, flow, seq, g, w)
		}
	}
	// The top of the seq space: 0xFFFFFFFF is newest, 0 is too old, and
	// the window does not wrap back onto low seqs.
	for _, seq := range []uint32{0, 0xFFFFFFFF, 0xFFFFFFFF, 0, 0xFFFFFFC1, 0xFFFFFFC1, 0xFFFFFFC0, 1} {
		check(0, seq)
	}
	check(0xFFFFFFFF, 0xFFFFFFFF)
	check(0xFFFFFFFF, 0xFFFFFFFF)

	// Per flow, the seq an in-order sender sends next.
	next := map[uint32]uint32{1: 1000, 2: 1000, 3: 1000, 4: 1000}
	for calls < 200000 {
		flow := 1 + r.Uint32N(4)
		switch r.IntN(10) {
		case 0: // a run in order
			for k := r.IntN(80); k >= 0; k-- {
				check(flow, next[flow])
				next[flow]++
			}
		case 1: // a jump past the whole window
			next[flow] += 64 + r.Uint32N(200)
			check(flow, next[flow])
			next[flow]++
		case 2: // at the window's edge and past it
			check(flow, next[flow]-64-r.Uint32N(100))
		case 3: // a repeat of the newest
			check(flow, next[flow]-1)
		default: // reorder up to 63 behind; sometimes skip a few seqs, leaving holes
			check(flow, next[flow]-1-r.Uint32N(64))
			if r.IntN(4) == 0 {
				next[flow] += r.Uint32N(8)
			}
		}
	}
	if len(got.flows) != 6 {
		t.Fatalf("%d windows for 6 flows", len(got.flows))
	}
}

// Once a flow has its window, recording and checking seqs must not
// allocate.
func TestDedupAllocFreeWhenWarm(t *testing.T) {
	var d Dedup
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
