package simtime

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 5} {
		d := d
		s.At(d*time.Millisecond, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []time.Duration{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestSchedulerPastClampsToNow(t *testing.T) {
	s := NewScheduler()
	var fired bool
	s.At(10*time.Millisecond, func() {
		s.At(time.Millisecond, func() { fired = true }) // in the past
	})
	s.Run()
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock went backwards: now=%v", s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	var fired bool
	ev := s.At(time.Second, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending before run")
	}
	if !ev.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerCancelZeroHandle(t *testing.T) {
	var ev Event
	if ev.Cancel() {
		t.Fatal("zero event Cancel should report false")
	}
	if ev.Pending() {
		t.Fatal("zero event should not be pending")
	}
}

// A handle must go dead once its slot is recycled by a later event: Cancel
// and Pending on the stale handle may not touch the new occupant.
func TestSchedulerStaleHandleAfterRecycle(t *testing.T) {
	s := NewScheduler()
	stale := s.At(time.Millisecond, func() {})
	if !s.Step() {
		t.Fatal("Step should fire the event")
	}
	var fired bool
	fresh := s.At(time.Second, func() { fired = true }) // recycles the slot
	if stale.Pending() {
		t.Fatal("stale handle reports pending after its slot was recycled")
	}
	if stale.Cancel() {
		t.Fatal("stale handle Cancel must not cancel the recycled slot's event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh event lost")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled-slot event never fired")
	}
}

// Len must count live events only; Queued includes lazily-removed ones.
func TestSchedulerLenExcludesCancelled(t *testing.T) {
	s := NewScheduler()
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = s.At(time.Duration(i+1)*time.Second, func() {})
	}
	for i := 0; i < 4; i++ {
		evs[i].Cancel()
	}
	if got := s.Len(); got != 6 {
		t.Fatalf("Len=%d after cancelling 4 of 10, want 6", got)
	}
	if got := s.Queued(); got != 10 {
		t.Fatalf("Queued=%d, want 10 (lazy removal keeps cancelled entries)", got)
	}
	fired := 0
	for s.Step() {
		fired++
	}
	if fired != 6 {
		t.Fatalf("fired %d events, want 6", fired)
	}
	if s.Len() != 0 || s.Queued() != 0 {
		t.Fatalf("drained scheduler reports Len=%d Queued=%d", s.Len(), s.Queued())
	}
}

// Heavy cancellation must not accumulate dead heap entries (lazy purge).
func TestSchedulerPurgeBoundsCancelled(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10_000; i++ {
		ev := s.At(time.Duration(i+1)*time.Millisecond, func() {})
		if i%10 != 0 {
			ev.Cancel()
		}
	}
	if live, queued := s.Len(), s.Queued(); queued > 2*live+128 {
		t.Fatalf("purge failed to bound dead entries: live=%d queued=%d", live, queued)
	}
	fired := 0
	for s.Step() {
		fired++
	}
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
}

// The heap must fire exactly in (at, seq) order — the order a plain sort
// of every surviving event gives — through heavy cancellation that runs
// maybePurge's in-place rebuild, and through events scheduled and
// cancelled from inside callbacks while the heap drains.
func TestHeapMatchesSortedModel(t *testing.T) {
	type key struct {
		at time.Duration
		id int // scheduling order, which is the seq order
	}
	for seed := int64(1); seed <= 20; seed++ {
		s := NewScheduler()
		r := NewRand(seed)
		var (
			keys     []key
			evs      []Event
			canceled = make(map[int]bool)
			got      []int
		)
		var at func(t time.Duration)
		at = func(t time.Duration) {
			id := len(keys)
			keys = append(keys, key{t, id})
			evs = append(evs, s.At(t, func() {
				got = append(got, id)
				if len(keys) < 2000 && r.Bool(0.3) {
					at(s.Now() + time.Duration(r.Intn(5))*time.Millisecond)
				}
				if r.Bool(0.2) {
					if k := r.Intn(len(evs)); evs[k].Cancel() {
						canceled[k] = true
					}
				}
			}))
		}
		for i := 0; i < 600; i++ {
			at(time.Duration(r.Intn(50)) * time.Millisecond)
		}
		for _, k := range r.Perm(len(evs))[:420] {
			evs[k].Cancel()
			canceled[k] = true
		}
		if q := s.Queued(); q >= 600 {
			t.Fatalf("seed %d: %d cancels left Queued=%d, want a purge", seed, len(canceled), q)
		}
		s.Run()
		var want []int
		slices.SortFunc(keys, func(a, b key) int {
			if a.at != b.at {
				return cmp.Compare(a.at, b.at)
			}
			return cmp.Compare(a.id, b.id)
		})
		for _, k := range keys {
			if !canceled[k.id] {
				want = append(want, k.id)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: fired %d events, sorted model %d; first 20 %v vs %v",
				seed, len(got), len(want), got[:min(20, len(got))], want[:min(20, len(want))])
		}
		if s.Fired() != uint64(len(want)) || s.Len() != 0 || s.Queued() != 0 {
			t.Fatalf("seed %d: Fired=%d Len=%d Queued=%d, want %d, 0, 0", seed, s.Fired(), s.Len(), s.Queued(), len(want))
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var count int
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(5 * time.Second)
	if count != 5 {
		t.Fatalf("fired %d events by 5s, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock at %v after RunUntil(5s)", s.Now())
	}
	if s.Len() != 5 {
		t.Fatalf("%d events left, want 5", s.Len())
	}
	// Continue to drain.
	s.RunUntil(time.Hour)
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestSchedulerRunUntilAdvancesEmptyClock(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(3 * time.Second)
	if s.Now() != 3*time.Second {
		t.Fatalf("empty RunUntil left clock at %v", s.Now())
	}
}

func TestSchedulerAfterNegativeClamps(t *testing.T) {
	s := NewScheduler()
	var at time.Duration = -1
	s.At(time.Second, func() {
		s.After(-5*time.Second, func() { at = s.Now() })
	})
	s.Run()
	if at != time.Second {
		t.Fatalf("negative After fired at %v, want 1s", at)
	}
}

func TestSchedulerFiredCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	ev := s.After(time.Hour, func() {})
	ev.Cancel()
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired=%d, want 7 (cancelled events must not count)", s.Fired())
	}
}

func TestSchedulerStepOnEmpty(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

// Property: however events are scheduled, they fire in non-decreasing
// time order.
func TestSchedulerOrderProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		s := NewScheduler()
		var last time.Duration = -1
		ok := true
		for _, off := range offsets {
			s.At(time.Duration(off)*time.Microsecond, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling from inside handlers preserves order too.
func TestSchedulerNestedOrderProperty(t *testing.T) {
	prop := func(offsets []uint8) bool {
		s := NewScheduler()
		var last time.Duration = -1
		ok := true
		check := func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		}
		s.At(0, func() {
			for _, off := range offsets {
				s.After(time.Duration(off)*time.Microsecond, check)
			}
		})
		s.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
