package simtime

import (
	"testing"
	"time"
)

// AfterFIFO must be observably identical to After for constant delays:
// same virtual firing times, same FIFO interleaving against heap events
// at the same instant.
func TestAfterFIFOMatchesAfterOrdering(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.AfterFIFO(10*time.Millisecond, func() { order = append(order, "line1") })
	s.After(10*time.Millisecond, func() { order = append(order, "heap1") })
	s.AfterFIFO(10*time.Millisecond, func() { order = append(order, "line2") })
	s.After(10*time.Millisecond, func() { order = append(order, "heap2") })
	s.AfterFIFO(5*time.Millisecond, func() { order = append(order, "early") })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"early", "line1", "heap1", "line2", "heap2"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// Cancelling line entries — front, middle, and after the pooled event is
// already up — must suppress exactly those callbacks.
func TestAfterFIFOCancel(t *testing.T) {
	s := NewScheduler()
	var fired []int
	evs := make([]Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = s.AfterFIFO(10*time.Millisecond, func() { fired = append(fired, i) })
	}
	if !evs[0].Cancel() { // front, pooled event already scheduled for it
		t.Fatal("front cancel reported not pending")
	}
	if !evs[2].Cancel() { // middle, collected lazily
		t.Fatal("middle cancel reported not pending")
	}
	if evs[2].Cancel() {
		t.Fatal("double cancel reported pending")
	}
	if evs[2].Pending() {
		t.Fatal("cancelled entry still pending")
	}
	if !evs[3].Pending() {
		t.Fatal("live entry not pending")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// A same-instant burst through one line must fire in FIFO order and run
// to completion even when callbacks keep appending to the line.
func TestAfterFIFOSameInstantBurst(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.At(time.Millisecond, func() {
		for i := 0; i < 100; i++ {
			i := i
			s.AfterFIFO(0, func() {
				fired = append(fired, i)
				if i == 0 { // chain another same-instant entry mid-batch
					s.AfterFIFO(0, func() { fired = append(fired, 100) })
				}
			})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 101 {
		t.Fatalf("fired %d callbacks, want 101", len(fired))
	}
	for i := 0; i < 100; i++ {
		if fired[i] != i {
			t.Fatalf("burst out of order at %d: %v", i, fired[:i+1])
		}
	}
	if fired[100] != 100 {
		t.Fatalf("chained entry fired out of order: %v", fired[95:])
	}
}

// Stop() from inside a batched callback must halt the batch like it
// halts a Run loop: later same-instant entries stay queued.
func TestAfterFIFOStopInsideBatch(t *testing.T) {
	s := NewScheduler()
	var fired int
	s.At(time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			s.AfterFIFO(0, func() {
				fired++
				if fired == 3 {
					s.Stop()
				}
			})
		}
	})
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if fired != 3 {
		t.Fatalf("batch ran %d callbacks past Stop, want 3", fired)
	}
	if s.Len() != 7 {
		t.Fatalf("Len=%d after Stop, want 7 queued entries", s.Len())
	}
}

// Line scheduling must stay allocation-free in steady state and keep the
// heap at one entry per line.
func TestAfterFIFOAllocFreeAndFlatHeap(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.AfterFIFO(time.Millisecond, fn)
		s.AfterFIFO(5*time.Millisecond, fn)
	}
	if q := s.Queued(); q > 2 {
		t.Fatalf("two lines occupy %d heap entries, want <= 2", q)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(2000, func() {
		s.AfterFIFO(time.Millisecond, fn)
		for s.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("line schedule/fire cycle allocates %.1f allocs/op, want 0", avg)
	}
}

// Negative delays clamp to zero, like After.
func TestAfterFIFONegativeDelayClamps(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.AfterFIFO(-time.Second, func() { fired = true })
	if err := s.RunUntil(0); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !fired {
		t.Fatal("negative-delay entry never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v", s.Now())
	}
}

// A cancelled front entry's no-op pooled fire must not count as an
// executed event — Fired() semantics match dedicated After events.
func TestAfterFIFOCancelledFrontNotCountedFired(t *testing.T) {
	s := NewScheduler()
	s.AfterFIFO(time.Millisecond, func() {}).Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.Fired(); got != 0 {
		t.Fatalf("Fired=%d after running only a cancelled entry, want 0", got)
	}
	// And a mixed line still counts exactly the executed callbacks.
	s.AfterFIFO(time.Millisecond, func() {})
	s.AfterFIFO(time.Millisecond, func() {}).Cancel()
	s.AfterFIFO(time.Millisecond, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.Fired(); got != 2 {
		t.Fatalf("Fired=%d, want 2 executed callbacks", got)
	}
}

// A timer re-armed per packet (Cancel, then AfterFIFO with the same
// delay) behind another MN's pending entry must not hold an arena slot
// per cancelled arming: Cancel frees the entry's slot at once, and the
// ring compacts the stale handles the re-arms leave behind it.
func TestAfterFIFORearmKeepsArenaFlat(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	s.AfterFIFO(2*time.Second, fn) // another MN's timer, at the front
	ev := s.AfterFIFO(2*time.Second, fn)
	for i := 0; i < 100000; i++ {
		ev.Cancel()
		ev = s.AfterFIFO(2*time.Second, fn)
		if n := len(s.slots); n > 4 {
			t.Fatalf("re-arm %d: arena holds %d slots, want <= 4", i, n)
		}
	}
	if n := len(s.lines[2*time.Second].ring); n > 16 {
		t.Fatalf("ring grew to %d handles for two live entries", n)
	}
	if s.Len() != 2 || !ev.Pending() {
		t.Fatalf("Len=%d pending=%v, want the two live timers", s.Len(), ev.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Fired() != 2 || s.Now() != 2*time.Second {
		t.Fatalf("Fired=%d at %v, want both live timers at 2s", s.Fired(), s.Now())
	}
}

// A cancelled line entry's slot is recycled by the very next schedule.
// The old handle must stay dead (Cancel and Pending report false, and
// its stale ring handle never runs anything), the new occupant must
// still fire, and Len/Fired must count only live callbacks — whether the
// slot goes to a heap event or to a later entry of the same line.
func TestAfterFIFOCancelledSlotReuse(t *testing.T) {
	for _, viaLine := range []bool{false, true} {
		s := NewScheduler()
		var fired []string
		first := s.AfterFIFO(time.Millisecond, func() { fired = append(fired, "first") })
		old := s.AfterFIFO(time.Millisecond, func() { fired = append(fired, "old") })
		if !old.Cancel() {
			t.Fatal("cancel of a pending line entry reported false")
		}
		newFn := func() { fired = append(fired, "new") }
		var nu Event
		if viaLine {
			nu = s.AfterFIFO(time.Millisecond, newFn)
		} else {
			nu = s.After(3*time.Millisecond, newFn)
		}
		if nu.idx != old.idx {
			t.Fatalf("viaLine=%v: new event took slot %d, want the freed slot %d", viaLine, nu.idx, old.idx)
		}
		if old.Cancel() || old.Pending() {
			t.Fatalf("viaLine=%v: stale handle still reports pending", viaLine)
		}
		if !nu.Pending() || !first.Pending() {
			t.Fatalf("viaLine=%v: live events not pending", viaLine)
		}
		if s.Len() != 2 {
			t.Fatalf("viaLine=%v: Len=%d, want 2 live callbacks", viaLine, s.Len())
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != 2 || fired[0] != "first" || fired[1] != "new" {
			t.Fatalf("viaLine=%v: fired %v, want [first new]", viaLine, fired)
		}
		if s.Fired() != 2 || s.Len() != 0 {
			t.Fatalf("viaLine=%v: Fired=%d Len=%d, want 2 and 0", viaLine, s.Fired(), s.Len())
		}
	}
}

// Cancelling entries in the middle of a line that keeps wrapping its ring
// must still fire every live entry once, in FIFO order, while compaction
// keeps the ring sized by the live entries. The arrival rate alternates
// between one and two entries per millisecond so the ring also fills,
// and compacts in place, with its head mid-buffer.
func TestAfterFIFOCompactionKeepsOrder(t *testing.T) {
	s := NewScheduler()
	var fired, want []int
	var evs []Event
	canceled := make(map[int]bool)
	for step := 0; step < 4000; step++ {
		if err := s.RunUntil(time.Duration(step) * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= step/1000%2; k++ {
			i := len(evs)
			evs = append(evs, s.AfterFIFO(100*time.Millisecond, func() { fired = append(fired, i) }))
			if j := i - 1; j >= 0 && j%3 != 0 {
				evs[j].Cancel()
				canceled[j] = true
			}
		}
	}
	if n := len(s.lines[100*time.Millisecond].ring); n > 256 {
		t.Fatalf("ring grew to %d handles for ~70 live entries", n)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if !canceled[i] {
			want = append(want, i)
		}
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d entries, want %d", len(fired), len(want))
	}
	for k := range want {
		if fired[k] != want[k] {
			t.Fatalf("fired[%d]=%d, want %d", k, fired[k], want[k])
		}
	}
	if s.Fired() != uint64(len(want)) {
		t.Fatalf("Fired=%d, want %d", s.Fired(), len(want))
	}
}
