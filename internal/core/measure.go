package core

import (
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/radio"
)

// measureDriver is one MN's measurement pipeline: the pure half (position
// + signal measurement, a function of virtual time and static topology
// only) feeds the stateful half (the scheme's handoff decision, which
// runs on the simulation goroutine at the MN's own staggered tick).
//
// Splitting the two is what makes the measurement phase parallelisable
// without touching determinism: while the simulation goroutine applies
// one cycle's decisions, workers pre-compute every MN's (pos, speed,
// signals) for the next cycle — byte-identical to computing them inline,
// because the computation is pure per MN — and decisions still apply
// sequentially, in id order, at their original virtual instants.
type measureDriver struct {
	model mobility.Model
	// measure fills sigs from pos. It must be pure per MN: static
	// topology plus at most this MN's private rng stream.
	measure func(dst []radio.Signal, pos geo.Point) []radio.Signal
	// decide consumes one tick's measurements and may mutate shared
	// protocol state (handoffs, attachment, admission).
	decide func(pos geo.Point, speed float64, sigs []radio.Signal)
	// shared marks a driver whose measurement draws from a run-shared rng
	// stream (Mobile IP / Cellular IP under shadowing): its draws must
	// interleave across MNs in tick order, so it always measures inline
	// and is excluded from the parallel phase.
	shared bool

	// slots double-buffers the measurement: slots[s.parity] feeds this
	// cycle's decisions while a background prime fills the other slot
	// for the next cycle.
	slots [2]measureSlot
}

// measureSlot is one MN's measurement for one cycle. sigs is scratch
// reused cycle after cycle; primed marks a measurement computed by the
// parallel phase and not yet consumed by the MN's tick.
type measureSlot struct {
	sigs   []radio.Signal
	pos    geo.Point
	speed  float64
	primed bool
}

// driver registers MN i's measurement pipeline and schedules its ticks on
// the measurement cadence, staggered per MN exactly like the sequential
// engine always has.
func (s *scenario) driver(i int, shared bool,
	measure func(dst []radio.Signal, pos geo.Point) []radio.Signal,
	decide func(pos geo.Point, speed float64, sigs []radio.Signal)) {

	d := &s.drivers[i]
	d.model = s.models[i]
	d.measure = measure
	d.decide = decide
	d.shared = shared
	offset := s.measureOffset(i)
	s.sched.At(offset, func() {
		tick := func() { s.measureTick(i) }
		tick()
		s.sched.Every(s.cfg.MeasureInterval, tick)
	})
}

// measureOffset returns MN i's fixed phase within the measurement
// interval. MN 0 always holds the earliest phase, so its tick opens each
// measurement cycle.
func (s *scenario) measureOffset(i int) time.Duration {
	return time.Duration(i+1) * s.cfg.MeasureInterval / time.Duration(s.cfg.NumMNs+1)
}

// anyParallelDriver reports whether at least one registered driver can
// be primed off the simulation goroutine.
func (s *scenario) anyParallelDriver() bool {
	for i := range s.drivers {
		if s.drivers[i].decide != nil && !s.drivers[i].shared {
			return true
		}
	}
	return false
}

// measureTick runs MN i's tick: consume the measurement the parallel
// phase primed, or compute it inline, then decide.
//
// With measureWorkers > 1, MN 0's tick opens each cycle: it collects the
// prime started one cycle earlier (or, on the first cycle, primes the
// current cycle synchronously), flips the slot parity, and starts the
// next cycle's prime in the background, so the workers measure while
// this cycle's decisions run. Decisions read only the current slot; the
// workers write only the other one.
//
// With tracing armed the two halves also accumulate wall-clock spend
// into the trace (measure vs decide), the one place the engine is
// allowed to read the host clock; the totals are diagnostics only and
// never feed back into simulation state or the exported trace bytes.
func (s *scenario) measureTick(i int) {
	w := s.obsWall()
	now := s.sched.Now()
	if i == 0 && s.measureWorkers > 1 {
		var t0 time.Time
		if w != nil {
			t0 = time.Now()
		}
		if s.priming {
			s.parity ^= 1
		} else {
			s.startPrime(s.parity, now) // first cycle: nothing primed it yet
		}
		s.prime.Wait()
		if w != nil {
			w.MeasureNS += time.Since(t0).Nanoseconds()
		}
		next := now + s.cfg.MeasureInterval
		if s.priming = next <= s.cfg.Duration; s.priming {
			s.startPrime(s.parity^1, next)
		}
	}
	d := &s.drivers[i]
	m := &d.slots[s.parity]
	if !m.primed {
		var t0 time.Time
		if w != nil {
			t0 = time.Now()
		}
		m.pos = d.model.Position(now)
		m.speed = mobility.Speed(d.model, now)
		m.sigs = d.measure(m.sigs, m.pos)
		if w != nil {
			w.MeasureNS += time.Since(t0).Nanoseconds()
		}
	}
	m.primed = false
	var t0 time.Time
	if w != nil {
		t0 = time.Now()
	}
	d.decide(m.pos, m.speed, m.sigs)
	if w != nil {
		w.DecideNS += time.Since(t0).Nanoseconds()
	}
}

// startPrime starts pre-computing, into slots[slot], every non-shared
// MN's measurement for the cycle MN 0 opens at base (MN i ticks exactly
// stagger(i)-stagger(0) later), on measureWorkers goroutines tracked by
// s.prime. Positions are pure functions of virtual time, signal
// measurement reads only the static topology (plus the MN's private
// shadowing stream, advanced in the same per-MN order as inline
// measurement would), and each worker writes only its own MNs' model,
// stream and slot — so the result is byte-identical to inline
// computation for any worker count, including one.
func (s *scenario) startPrime(slot int, base time.Duration) {
	n := len(s.drivers)
	workers := min(s.measureWorkers, n)
	off0 := s.measureOffset(0)
	s.prime.Add(workers)
	for w := 0; w < workers; w++ {
		go func(lo, hi int) {
			defer s.prime.Done()
			for i := lo; i < hi; i++ {
				d := &s.drivers[i]
				if d.shared {
					continue // inline-only: run-shared rng stream
				}
				m := &d.slots[slot]
				at := base + s.measureOffset(i) - off0
				m.pos = d.model.Position(at)
				m.speed = mobility.Speed(d.model, at)
				m.sigs = d.measure(m.sigs, m.pos)
				m.primed = true
			}
		}(n*w/workers, n*(w+1)/workers)
	}
}
