package simtime

import (
	"testing"
	"time"
)

// The steady-state schedule/fire cycle must be allocation-free: slots are
// recycled through the arena free list and the heap reuses its backing
// array. A regression here multiplies into millions of allocations per
// experiment, so the budget is asserted, not just benchmarked.
func TestScheduleFireCycleAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the arena and heap to steady-state capacity.
	for i := 0; i < 1024; i++ {
		s.After(time.Duration(i%7)*time.Microsecond, fn)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(2000, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule/fire cycle allocates %.1f allocs/op, want 0", avg)
	}
}

// Cancelling recycled-slot churn must stay allocation-free too.
func TestScheduleCancelCycleAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.After(time.Microsecond, fn).Cancel()
		s.Step()
	}
	avg := testing.AllocsPerRun(2000, func() {
		ev := s.After(time.Microsecond, fn)
		ev.Cancel()
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule/cancel cycle allocates %.1f allocs/op, want 0", avg)
	}
}

// Ticker re-arming must not allocate per tick (the tick closure is bound
// once at construction).
func TestTickerTickAllocFree(t *testing.T) {
	s := NewScheduler()
	tk := s.Every(time.Millisecond, func() {})
	for i := 0; i < 64; i++ {
		s.Step()
	}
	avg := testing.AllocsPerRun(2000, func() {
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("ticker tick allocates %.1f allocs/op, want 0", avg)
	}
	tk.Stop()
}

// The per-packet idle-timer pattern — arm a line entry, cancel it, arm a
// replacement, fire — must be allocation-free once the arena, heap and
// ring are warm.
func TestLineArmCancelFireCycleAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	cycle := func() {
		s.AfterFIFO(time.Millisecond, fn).Cancel()
		s.AfterFIFO(time.Millisecond, fn)
		for s.Step() {
		}
	}
	for i := 0; i < 1024; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("line arm/cancel/fire cycle allocates %.1f allocs/op, want 0", avg)
	}
}

// A staggered ticker sweep run through RunUntil — the batch that runs
// ahead in time — must not allocate once the ring is warm.
func TestRunUntilSweepAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 256; i++ {
		s.At(time.Duration(i)*time.Microsecond, func() { s.Every(time.Millisecond, fn) })
	}
	s.RunUntil(4 * time.Millisecond)
	avg := testing.AllocsPerRun(500, func() {
		s.RunUntil(s.Now() + time.Millisecond)
	})
	if avg != 0 {
		t.Fatalf("RunUntil sweep allocates %.1f allocs/op, want 0", avg)
	}
}

// A handle-less post on a held line — the packet-flight pattern — must be
// allocation-free and must take no arena slot.
func TestLinePostFireCycleAllocFree(t *testing.T) {
	s := NewScheduler()
	ln := s.Line(time.Millisecond)
	fn := func() {}
	cycle := func() {
		for k := 0; k < 8; k++ {
			ln.Post(fn)
		}
		for s.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	slots := len(s.slots)
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("line post/fire cycle allocates %.1f allocs/op, want 0", avg)
	}
	if len(s.slots) != slots || slots > 1 {
		t.Fatalf("posts grew the slot arena to %d (from %d); only the pooled event takes one", len(s.slots), slots)
	}
}
