package core

import (
	"time"

	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// measureDriver is one MN's measurement pipeline: the pure half (speed
// + the in-range signals of every cell of minTier or above, a function
// of virtual time, the static topology and the MN's private shadowing
// stream only) feeds the stateful half (the scheme's handoff decision,
// which runs on the simulation goroutine at the MN's own staggered tick).
//
// Splitting the two is what makes the measurement phase parallelisable
// without touching determinism: while the simulation goroutine applies
// one cycle's decisions, workers pre-compute every MN's (speed, signals)
// for the next cycle — byte-identical to computing them inline, because
// the computation is pure per MN — and decisions still apply
// sequentially, in id order, at their original virtual instants.
type measureDriver struct {
	model mobility.Model
	// rng is the MN's private shadowing stream (nil without shadowing).
	rng *simtime.Rand
	// minTier is the lowest tier the scheme attaches to.
	minTier topology.Tier
	// decide consumes one tick's measurements and may mutate shared
	// protocol state (handoffs, attachment, admission).
	decide func(speed float64, sigs []radio.Signal)

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
	speed  float64
	primed bool
}

// driver registers MN i's measurement pipeline, forking its shadowing
// stream, and schedules its ticks on the measurement cadence, staggered
// per MN exactly like the sequential engine always has.
func (s *scenario) driver(i int, minTier topology.Tier, decide func(speed float64, sigs []radio.Signal)) {
	d := &s.drivers[i]
	d.model = s.models[i]
	d.rng = s.measureRng()
	d.minTier = minTier
	d.decide = decide
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

// flatDriver registers MN i on a flat scheme: it camps on the strongest
// cell of minTier or above, with the selector's hysteresis, and calls
// attach with every new cell.
func (s *scenario) flatDriver(i int, minTier topology.Tier, attach func(topology.CellID)) {
	sel := radio.DefaultSelector()
	current := topology.NoCell
	s.driver(i, minTier, func(_ float64, sigs []radio.Signal) {
		best := topology.CellID(sel.Best(int(current), sigs))
		if best == topology.NoCell || best == current {
			return
		}
		current = best
		s.noteHandoff(i)
		attach(best)
	})
}

// measureRng returns a fresh shadowing stream for one MN's measurements
// (nil, forking nothing, when shadowing is disabled — deterministic mean
// signals).
func (s *scenario) measureRng() *simtime.Rand {
	if s.cfg.Shadowing {
		return s.rng.Fork()
	}
	return nil
}

// measure fills m with d's measurement at virtual time at.
func (s *scenario) measure(d *measureDriver, m *measureSlot, at time.Duration) {
	pos := d.model.Position(at)
	m.speed = mobility.Speed(d.model, at)
	m.sigs = s.top.MeasureInto(m.sigs, pos, d.rng, d.minTier)
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
func (s *scenario) measureTick(i int) {
	now := s.sched.Now()
	if i == 0 && s.measureWorkers > 1 {
		if s.priming {
			s.parity ^= 1
		} else {
			s.startPrime(s.parity, now) // first cycle: nothing primed it yet
		}
		s.prime.Wait()
		next := now + s.cfg.MeasureInterval
		if s.priming = next <= s.cfg.Duration; s.priming {
			s.startPrime(s.parity^1, next)
		}
	}
	d := &s.drivers[i]
	m := &d.slots[s.parity]
	if !m.primed {
		s.measure(d, m, now)
	}
	m.primed = false
	d.decide(m.speed, m.sigs)
}

// startPrime starts pre-computing, into slots[slot], every MN's
// measurement for the cycle MN 0 opens at base (MN i ticks exactly
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
				m := &d.slots[slot]
				s.measure(d, m, base+s.measureOffset(i)-off0)
				m.primed = true
			}
		}(n*w/workers, n*(w+1)/workers)
	}
}
