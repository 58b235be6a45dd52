package simtime

import (
	"testing"
	"time"
)

// Stopping another member of the same group from inside a callback —
// mid-sweep, with both members due at the same instant — must neither
// fire the stopped member nor skip the one after it.
func TestTickerStopOtherMemberDuringSweep(t *testing.T) {
	s := NewScheduler()
	var fired []string
	var b *Ticker
	s.Every(10*time.Millisecond, func() {
		fired = append(fired, "a")
		if len(fired) == 1 {
			b.Stop()
		}
	})
	b = s.Every(10*time.Millisecond, func() { fired = append(fired, "b") })
	s.Every(10*time.Millisecond, func() { fired = append(fired, "c") })
	s.RunUntil(25 * time.Millisecond)
	// Sweep 1: a fires and stops b; c must still fire. Sweep 2: a, c.
	want := []string{"a", "c", "a", "c"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if !b.Stopped() || b.Ticks() != 0 {
		t.Fatalf("stopped member fired %d times", b.Ticks())
	}
}

// Stopping a member whose next firing is later in the same sweep cycle
// (distinct phases) must remove exactly that firing.
func TestTickerStopLaterPhaseMember(t *testing.T) {
	s := NewScheduler()
	var fired []string
	var b *Ticker
	// Distinct phases within one 10ms cycle: a at 10, 20, …; b at 13,
	// 23, …; c at 16, 26, ….
	s.Every(10*time.Millisecond, func() {
		fired = append(fired, "a")
		if len(fired) == 4 { // second a-fire, after b and c each fired once
			b.Stop()
		}
	})
	s.At(3*time.Millisecond, func() {
		b = s.Every(10*time.Millisecond, func() { fired = append(fired, "b") })
	})
	s.At(6*time.Millisecond, func() {
		s.Every(10*time.Millisecond, func() { fired = append(fired, "c") })
	})
	s.RunUntil(30 * time.Millisecond)
	// a at 10/20/30, b at 13 (stopped at 20), c at 16/26.
	want := []string{"a", "b", "c", "a", "c", "a"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// A ticker stopping itself mid-sweep must not disturb the member due
// right after it at the same instant.
func TestTickerStopSelfDuringSweep(t *testing.T) {
	s := NewScheduler()
	var aFires, bFires int
	var a *Ticker
	a = s.Every(5*time.Millisecond, func() {
		aFires++
		a.Stop()
	})
	s.Every(5*time.Millisecond, func() { bFires++ })
	s.RunUntil(20 * time.Millisecond)
	if aFires != 1 {
		t.Fatalf("self-stopped ticker fired %d times, want 1", aFires)
	}
	if bFires != 4 {
		t.Fatalf("next member fired %d times, want 4", bFires)
	}
}

// The event heap must stay O(distinct intervals) no matter how many
// tickers run: 10k members across three intervals may hold at most three
// scheduler events (plus transient cancelled entries awaiting lazy
// collection), while Len still reports every armed ticker.
func TestQueuedStaysBoundedByIntervals(t *testing.T) {
	s := NewScheduler()
	const perInterval = 3334
	intervals := []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond}
	total := 0
	for _, iv := range intervals {
		for i := 0; i < perInterval; i++ {
			s.Every(iv, func() {})
			total++
		}
	}
	if got := s.Len(); got != total {
		t.Fatalf("Len=%d after arming %d tickers", got, total)
	}
	maxQueued := 0
	for s.Now() < 500*time.Millisecond {
		if !s.Step() {
			t.Fatal("queue drained unexpectedly")
		}
		if q := s.Queued(); q > maxQueued {
			maxQueued = q
		}
	}
	// One live event per group; a small slack covers cancelled entries
	// from event replacement before lazy collection reclaims them.
	if limit := 2 * len(intervals); maxQueued > limit {
		t.Fatalf("Queued peaked at %d with %d tickers over %d intervals (limit %d)",
			maxQueued, total, len(intervals), limit)
	}
	if got := s.Len(); got != total {
		t.Fatalf("Len=%d mid-run, want %d armed tickers", got, total)
	}
}

// Group sweeps must stay allocation-free in steady state even with many
// members cycling through their interval's line.
func TestGroupSweepAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 512; i++ {
		s.Every(time.Millisecond, fn)
	}
	for i := 0; i < 2048; i++ {
		s.Step()
	}
	avg := testing.AllocsPerRun(2000, func() {
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("group sweep allocates %.1f allocs/op, want 0", avg)
	}
}

// Mixed-phase members of one group must fire in exactly the staggered
// order their dedicated events would have used.
func TestGroupPreservesStaggeredPhases(t *testing.T) {
	s := NewScheduler()
	var fired []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(time.Duration(i)*time.Millisecond, func() {
			s.Every(10*time.Millisecond, func() { fired = append(fired, i) })
		})
	}
	s.RunUntil(34 * time.Millisecond)
	// Member i fires at i+10, i+20, i+30 ms: three full sweeps in id order.
	want := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// Stopping the front ticker of a line must move the line's pooled event
// to the next ticker at once, as cancelling a dedicated event would: the
// heap keeps no live entry for a firing that will not happen.
func TestTickerStopMovesPooledEvent(t *testing.T) {
	s := NewScheduler()
	a := s.Every(10*time.Millisecond, func() {})
	s.At(4*time.Millisecond, func() { s.Every(10*time.Millisecond, func() {}) })
	s.RunUntil(5 * time.Millisecond)
	a.Stop()
	if at, ok := s.peekAt(); !ok || at != 14*time.Millisecond {
		t.Fatalf("earliest live event at %v (ok=%v) after stopping the front ticker, want 14ms", at, ok)
	}
}
