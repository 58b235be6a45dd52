package multitier

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// mapTable is the reference cell table: the same soft-state rules over a
// Go map — a stale sequence is refused only while the old record is
// live, and Lookup erases the expired record it finds.
type mapTable struct {
	timeout time.Duration
	sched   *simtime.Scheduler
	entries map[addr.IP]Record
}

func (t *mapTable) Update(mn addr.IP, via topology.CellID, seq uint32) bool {
	if mn == addr.Unspecified {
		return false
	}
	if old, ok := t.entries[mn]; ok && old.Expires > t.sched.Now() && seqBefore(seq, old.Seq) {
		return false
	}
	t.entries[mn] = Record{MN: mn, Via: via, Expires: t.sched.Now() + t.timeout, Seq: seq}
	return true
}

func (t *mapTable) Lookup(mn addr.IP) (Record, bool) {
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

func (t *mapTable) Delete(mn addr.IP) { delete(t.entries, mn) }

func (t *mapTable) Len() int {
	n := 0
	for _, r := range t.entries {
		if r.Expires > t.sched.Now() {
			n++
		}
	}
	return n
}

// checkTableShape verifies the open-addressing invariants: the record
// count matches the occupied slots, the array stays under 3/4 full, and
// every record is found from its home slot by a probe that crosses no
// empty slot.
func checkTableShape(t *testing.T, tab *Table) {
	t.Helper()
	used := 0
	for i, r := range tab.slots {
		if r.MN == addr.Unspecified {
			continue
		}
		used++
		if got := tab.find(r.MN); got != i {
			t.Fatalf("record %v sits in slot %d but its probe finds %d", r.MN, i, got)
		}
	}
	if used != tab.used {
		t.Fatalf("used = %d, %d slots occupied", tab.used, used)
	}
	if 4*tab.used > 3*len(tab.slots) {
		t.Fatalf("%d records in %d slots: over 3/4 load", tab.used, len(tab.slots))
	}
}

// TestTableMatchesMapModel runs random Update/Lookup/Delete sequences
// against the Go-map reference. The address pool mixes dense MN
// addresses with addresses equal modulo every table length up to 256,
// so probe chains form, cross the array end and lose members in the
// middle; time steps include exactly one timeout, so records expire at
// now; sequences run near the wrap point and sometimes go backwards.
func TestTableMatchesMapModel(t *testing.T) {
	base := addr.MustParse("172.16.0.0")
	var pool []addr.IP
	for i := uint32(0); i < 12; i++ {
		pool = append(pool, base+addr.IP(10+i)) // dense, like homeNet.Nth(10+i)
	}
	for i := uint32(1); i <= 12; i++ {
		pool = append(pool, base+addr.IP(7+256*i)) // all collide at home 7
	}
	pool = append(pool, base+255, base+511, addr.Unspecified) // wrap the array end; the empty marker
	const timeout = 10 * time.Millisecond
	steps := []time.Duration{0, time.Millisecond, 3 * time.Millisecond, timeout}
	for seed := int64(1); seed <= 40; seed++ {
		r := simtime.NewRand(seed)
		sched := simtime.NewScheduler()
		tab := NewTable(timeout, sched)
		ref := &mapTable{timeout: timeout, sched: sched, entries: map[addr.IP]Record{}}
		seqs := map[addr.IP]uint32{}
		for op := 0; op < 2000; op++ {
			mn := pool[r.Intn(len(pool))]
			switch k := r.Intn(10); {
			case k < 4:
				seq := seqs[mn] + uint32(r.Intn(3)) - 1 // newer, equal or older
				if r.Bool(0.05) {
					seq = 0xFFFFFFFF - uint32(r.Intn(2)) // jump to the wrap point
				}
				seqs[mn] = seq
				via := topology.CellID(r.Intn(50))
				if got, want := tab.Update(mn, via, seq), ref.Update(mn, via, seq); got != want {
					t.Fatalf("seed %d op %d: Update(%v, seq %d) = %v, model %v", seed, op, mn, seq, got, want)
				}
			case k < 7:
				got, gok := tab.Lookup(mn)
				want, wok := ref.Lookup(mn)
				if got != want || gok != wok {
					t.Fatalf("seed %d op %d: Lookup(%v) = %+v %v, model %+v %v", seed, op, mn, got, gok, want, wok)
				}
			case k < 8:
				tab.Delete(mn)
				ref.Delete(mn)
			default:
				sched.RunUntil(sched.Now() + steps[r.Intn(len(steps))])
			}
			checkTableShape(t, tab)
			if tab.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, tab.Len(), ref.Len())
			}
		}
	}
}

// Lookup and the refresh of an existing record run for every data packet
// and every Location Message at every tier: neither may allocate.
func TestTableLookupUpdateAllocFree(t *testing.T) {
	sched := simtime.NewScheduler()
	tab := NewTable(time.Minute, sched)
	for i := 0; i < 100; i++ {
		tab.Update(mnA+addr.IP(i), 3, 1)
	}
	seq := uint32(1)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, ok := tab.Lookup(mnA + 42); !ok {
			t.Fatal("record lost")
		}
	}); avg != 0 {
		t.Fatalf("Lookup allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		seq++
		if !tab.Update(mnA+42, 4, seq) {
			t.Fatal("refresh refused")
		}
	}); avg != 0 {
		t.Fatalf("Update of an existing record allocates %.1f allocs/op, want 0", avg)
	}
}
