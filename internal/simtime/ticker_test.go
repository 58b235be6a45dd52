package simtime

import (
	"testing"
	"time"
)

func TestTickerFiresPeriodically(t *testing.T) {
	s := NewScheduler()
	var at []time.Duration
	tk := s.Every(100*time.Millisecond, func() { at = append(at, s.Now()) })
	s.RunUntil(time.Second)
	tk.Stop()
	if len(at) != 10 {
		t.Fatalf("ticker fired %d times in 1s at 100ms, want 10", len(at))
	}
	for i, a := range at {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if a != want {
			t.Errorf("tick %d at %v, want %v", i, a, want)
		}
	}
	if tk.Ticks() != 10 {
		t.Fatalf("Ticks=%d, want 10", tk.Ticks())
	}
}

func TestTickerEveryNowFiresImmediately(t *testing.T) {
	s := NewScheduler()
	var at []time.Duration
	s.EveryNow(100*time.Millisecond, func() { at = append(at, s.Now()) })
	s.RunUntil(250 * time.Millisecond)
	want := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := NewScheduler()
	var count int
	var tk *Ticker
	tk = s.Every(time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
	if !tk.Stopped() {
		t.Fatal("ticker should report stopped")
	}
}

func TestTickerStopIdempotent(t *testing.T) {
	s := NewScheduler()
	tk := s.Every(time.Millisecond, func() {})
	tk.Stop()
	tk.Stop()
	s.Run()
	if tk.Ticks() != 0 {
		t.Fatalf("stopped ticker fired %d times", tk.Ticks())
	}
}

func TestTickerNonPositiveIntervalNeverFires(t *testing.T) {
	s := NewScheduler()
	tk := s.Every(0, func() { t.Fatal("zero-interval ticker fired") })
	if !tk.Stopped() {
		t.Fatal("zero-interval ticker should start stopped")
	}
	tk2 := s.EveryNow(-time.Second, func() { t.Fatal("negative-interval ticker fired") })
	if !tk2.Stopped() {
		t.Fatal("negative-interval ticker should start stopped")
	}
	s.Run()
}

// runRestartScript drives seeded hosts that restart their periodic timer
// the way protocol hosts do — switching between two intervals from
// outside the timer, from the timer's own callback, or stopping it — on
// one scheduler, with the restart done either by Stop plus a fresh Every
// or by Rearm (the ticker made at the first restart and Reset after it),
// and logs every firing with the clock, Len and Fired it saw.
func runRestartScript(seed int64, reset bool) []fireRec {
	s := NewScheduler()
	r := NewRand(seed)
	var log []fireRec
	const hosts = 6
	tickers := make([]*Ticker, hosts)
	intervals := []time.Duration{3 * time.Millisecond, 7 * time.Millisecond, 0}
	var restart func(h int, interval time.Duration)
	fire := func(h int) func() {
		return func() {
			log = append(log, fireRec{s.Now(), h, s.Len(), s.Fired()})
			if r.Bool(0.2) {
				restart(h, intervals[r.Intn(len(intervals))]) // from its own callback
			}
		}
	}
	fns := make([]func(), hosts)
	for h := range fns {
		fns[h] = fire(h)
	}
	restart = func(h int, interval time.Duration) {
		if reset {
			tickers[h] = s.Rearm(tickers[h], interval, fns[h])
			return
		}
		tickers[h].Stop()
		tickers[h] = s.Every(interval, fns[h])
	}
	if !reset {
		for h := range tickers {
			tickers[h] = s.Every(0, fns[h]) // created stopped
		}
	}
	for i := 0; i < 60; i++ {
		at := time.Duration(r.Intn(100)) * time.Millisecond / 2
		h, k := r.Intn(hosts), r.Intn(len(intervals))
		s.At(at, func() {
			log = append(log, fireRec{s.Now(), -1 - h, s.Len(), s.Fired()})
			restart(h, intervals[k])
		})
	}
	s.RunUntil(200 * time.Millisecond)
	return append(log, fireRec{s.Now(), -100, s.Len(), s.Fired()})
}

// Rearm and Reset are observably identical to Stop plus a fresh Every:
// same firing order, clock, Len and Fired in every callback, whether the
// restart comes from outside, from the timer's own callback, or stops it.
func TestTickerResetMatchesFreshEvery(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		want, got := runRestartScript(seed, false), runRestartScript(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records with Reset, %d with fresh tickers", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d record %d: Reset %+v, fresh %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// A warm Reset — the ticker's interval line exists — allocates nothing.
func TestTickerResetAllocFree(t *testing.T) {
	s := NewScheduler()
	tk := s.Every(time.Second, func() {})
	s.Every(2*time.Second, func() {}).Stop()
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		i++
		tk.Reset(time.Duration(1+i%2) * time.Second)
	}); avg != 0 {
		t.Fatalf("Reset allocates %.1f allocs/op, want 0", avg)
	}
}
