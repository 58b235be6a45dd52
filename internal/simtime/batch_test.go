package simtime

import (
	"slices"
	"testing"
	"time"
)

// staggerTickers arms n tickers of one interval at phases phase apart,
// the way the scenario engine staggers per-MN measurement ticks, and
// runs until every one is armed. Each firing appends its instant to
// fired.
func staggerTickers(t *testing.T, s *Scheduler, n int, interval, phase time.Duration, fired *[]time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		s.At(time.Duration(i)*phase, func() {
			s.Every(interval, func() { *fired = append(*fired, s.Now()) })
		})
	}
	s.RunUntil(time.Duration(n-1) * phase)
}

// A batch that runs ahead in time stops at the RunUntil deadline: no
// entry due after it runs, the clock ends exactly on it, and the next
// RunUntil picks the sweep up where the last one stopped.
func TestBatchStopsAtHorizon(t *testing.T) {
	s := NewScheduler()
	const interval, phase = 10 * time.Millisecond, 25 * time.Microsecond
	var fired []time.Duration
	staggerTickers(t, s, 100, interval, phase, &fired)
	s.At(time.Second, func() {}) // backstop: a batch with no horizon stops here
	for _, deadline := range []time.Duration{
		interval + 1012*time.Microsecond, // between two phases
		interval + 1500*time.Microsecond, // on a phase
		2*interval + 7*time.Microsecond,
	} {
		fired = fired[:0]
		from := s.Now()
		s.RunUntil(deadline)
		if s.Now() != deadline {
			t.Fatalf("clock at %v after RunUntil(%v)", s.Now(), deadline)
		}
		want := 0
		for i := 0; i < 100; i++ {
			for at := time.Duration(i)*phase + interval; at <= deadline; at += interval {
				if at > from {
					want++
				}
			}
		}
		if len(fired) != want {
			t.Fatalf("RunUntil(%v) from %v ran %d ticks, want %d", deadline, from, len(fired), want)
		}
		for _, at := range fired {
			if at <= from || at > deadline {
				t.Fatalf("RunUntil(%v) from %v ran a tick at %v", deadline, from, at)
			}
		}
	}
}

// A bare Step keeps the same-instant batch: it runs every line entry due
// at the popped event's instant and none due later, even with nothing
// else in the heap.
func TestStepRunsOneInstant(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	tick := func() { fired = append(fired, s.Now()) }
	s.Every(10*time.Millisecond, tick)
	s.Every(10*time.Millisecond, tick)
	s.At(time.Microsecond, func() { s.Every(10*time.Millisecond, tick) })
	s.At(time.Second, func() {}) // backstop: a batch with no horizon stops here
	if !s.Step() {
		t.Fatal("Step found nothing")
	}
	for _, want := range [][]time.Duration{
		{10 * time.Millisecond, 10 * time.Millisecond},
		{10*time.Millisecond + time.Microsecond},
		{20 * time.Millisecond, 20 * time.Millisecond},
	} {
		fired = fired[:0]
		before := s.Fired()
		if !s.Step() {
			t.Fatal("Step found nothing")
		}
		if !slices.Equal(fired, want) || s.Now() != want[0] || s.Fired()-before != uint64(len(want)) {
			t.Fatalf("Step ran ticks at %v (Fired +%d), clock %v; want %v", fired, s.Fired()-before, s.Now(), want)
		}
	}
}

// Staggered tickers of one interval with one far timer in the heap run
// their whole sweep as one batch: the heap is popped once per RunUntil
// slice, not once per tick, yet every tick runs at its own instant.
func TestStaggeredTickersPopHeapOncePerBatch(t *testing.T) {
	s := NewScheduler()
	const n, interval, phase = 400, 100 * time.Millisecond, 250 * time.Microsecond
	var fired []time.Duration
	staggerTickers(t, s, n, interval, phase, &fired)
	s.At(10*time.Second, func() { t.Fatal("far timer fired") })
	fired = fired[:0]
	pops0 := s.pops
	const slices = 5
	for k := 1; k <= slices; k++ {
		s.RunUntil(time.Duration(k) * interval)
	}
	if len(fired) < (slices-1)*n {
		t.Fatalf("%d ticks ran, want at least %d", len(fired), (slices-1)*n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i]-fired[i-1] != phase {
			t.Fatalf("tick %d at %v follows one at %v, want %v apart", i, fired[i], fired[i-1], phase)
		}
	}
	if pops := s.pops - pops0; pops != slices {
		t.Fatalf("%d heap pops for %d ticks over %d RunUntil slices, want one per slice",
			pops, len(fired), slices)
	}
}
