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
