package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
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
// one cycle's decisions, persistent workers measure every MN for the
// next two cycles into a ring of slots — byte-identical to measuring
// inline, because the computation is pure per MN and each MN is measured
// in cycle order — and decisions still apply sequentially, in id order,
// at their original virtual instants.
type measureDriver struct {
	model mobility.Model
	// rng is the MN's private shadowing stream (nil without shadowing).
	rng *simtime.Rand
	// minTier is the lowest tier the scheme attaches to.
	minTier topology.Tier
	// decide consumes one tick's measurements and may mutate shared
	// protocol state (handoffs, attachment, admission).
	decide func(speed float64, sigs []radio.Signal)
}

// measureSlot is one MN's measurement for one cycle; sigs is scratch
// reused cycle after cycle. scenario.slots holds one per MN for inline
// measurement, and measureRing per MN, slot-major, for a pipeline: MN i's
// measurement for cycle c is slots[(c%measureRing)*NumMNs+i].
type measureSlot struct {
	sigs  []radio.Signal
	speed float64
}

const (
	// measureRing is the number of cycles the ring holds: the one the
	// simulation goroutine is deciding on plus two measured ahead.
	measureRing = 3
	// measureChunk is the number of consecutive MNs one claim measures.
	measureChunk = 64
)

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
	var pos geo.Point
	pos, m.speed = d.model.Sample(at)
	m.sigs = s.top.MeasureInto(m.sigs, pos, d.rng, d.minTier)
}

// measureTick runs MN i's tick: take this cycle's measurement from the
// ring, or compute it inline, then decide. With a pipeline, MN 0's tick
// opens each cycle first (see measurePipe.open), so every slot a tick of
// the cycle reads is already measured.
func (s *scenario) measureTick(i int) {
	d := &s.drivers[i]
	p := s.pipe
	if p == nil {
		m := &s.slots[i]
		s.measure(d, m, s.sched.Now())
		d.decide(m.speed, m.sigs)
		return
	}
	if i == 0 {
		p.open()
	}
	m := &s.slots[p.base+i]
	d.decide(m.speed, m.sigs)
}

// measurePipe measures ahead of the simulation goroutine for a run with
// MeasureWorkers > 1. The work is a sequence of items — chunk x of cycle
// c is item c*chunks+x, where chunk x holds MNs [64x, 64x+64) and cycle c
// is the one MN 0 opens at measureOffset(0)+c*MeasureInterval — claimed
// from one counter by MeasureWorkers−1 persistent background goroutines
// and, whenever a cycle it opens is not measured yet, by the simulation
// goroutine itself. Claims stop at limit, which keeps the workers at
// most two cycles ahead of the one being decided (the ring's other two
// slots) and never past the last cycle within the deadline.
//
// Each MN's model, shadowing stream and slot are touched by one
// goroutine at a time, in cycle order: items are claimed in order, and
// the claimant of chunk x of cycle c first waits until chunk x of cycle
// c−1 is done. Decisions read a cycle's slots only after all of its
// chunks are done, and a slot is handed out again only after the
// simulation goroutine has opened the cycle after the one it held.
type measurePipe struct {
	s      *scenario
	chunks int64 // chunks per cycle
	last   int64 // last cycle whose opening tick falls within the deadline
	// cycle is the cycle the simulation goroutine opened last (−1 before
	// the first), slot its ring slot and base the index of that slot's
	// first MN in scenario.slots; only that goroutine reads or writes
	// them.
	cycle int64
	slot  int
	base  int

	next  atomic.Int64 // next unclaimed item
	limit atomic.Int64 // items below limit may be claimed
	// done counts the finished chunks of the cycle each ring slot holds.
	done [measureRing]atomic.Int64
	// chunkCycles[x] is the number of cycles whose chunk x is done.
	chunkCycles []atomic.Int64
	stop        atomic.Bool

	mu    sync.Mutex
	more  sync.Cond // workers: the limit rose, or stop
	ready sync.Cond // simulation goroutine: a cycle's last chunk is done
	// turn wakes claimants waiting for the previous cycle's run of their
	// chunk; a finished chunk broadcasts it only while turnWaits > 0.
	turn      sync.Cond
	turnWaits atomic.Int32
	wg        sync.WaitGroup
}

// startPipe starts the measurement workers of a run with MeasureWorkers
// > 1 whose first cycle opens within the deadline; stopPipe joins them.
func (s *scenario) startPipe() {
	off0 := s.measureOffset(0)
	if s.measureWorkers <= 1 || s.cfg.Duration < off0 {
		return
	}
	n := int64(len(s.drivers))
	p := &measurePipe{
		s:      s,
		chunks: (n + measureChunk - 1) / measureChunk,
		last:   int64((s.cfg.Duration - off0) / s.cfg.MeasureInterval),
		cycle:  -1,
	}
	p.chunkCycles = make([]atomic.Int64, p.chunks)
	p.more.L = &p.mu
	p.ready.L = &p.mu
	p.turn.L = &p.mu
	p.limit.Store((min(measureRing-1, p.last) + 1) * p.chunks)
	workers := min(int64(s.measureWorkers-1), measureRing*p.chunks)
	p.wg.Add(int(workers))
	for range workers {
		go p.work()
	}
	s.pipe = p
}

// stopPipe joins the measurement workers. Items still claimable belong
// to cycles no tick will read, so the workers stop at their next claim.
func (s *scenario) stopPipe() {
	p := s.pipe
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stop.Store(true)
	p.more.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	s.pipe = nil
}

// work is one background worker: claim and measure items until stopped,
// sleeping while none is claimable.
func (p *measurePipe) work() {
	defer p.wg.Done()
	for !p.stop.Load() {
		if j, ok := p.claim(p.limit.Load()); ok {
			p.measure(j)
			continue
		}
		p.mu.Lock()
		for !p.stop.Load() && p.next.Load() >= p.limit.Load() {
			p.more.Wait()
		}
		p.mu.Unlock()
	}
}

// claim takes the next item if it lies below bound.
func (p *measurePipe) claim(bound int64) (int64, bool) {
	for {
		j := p.next.Load()
		if j >= bound {
			return 0, false
		}
		if p.next.CompareAndSwap(j, j+1) {
			return j, true
		}
	}
}

// measure measures item j into its cycle's ring slot.
func (p *measurePipe) measure(j int64) {
	c, x := j/p.chunks, j%p.chunks
	// Chunk x of the previous cycle was claimed earlier but may still be
	// running on another goroutine, which is making progress: wait for it
	// so each MN is measured in cycle order. The count is raised before
	// the check under the lock and the chunk's cycle is stored before the
	// count is read, so a finishing chunk cannot miss a waiter.
	if p.chunkCycles[x].Load() < c {
		p.mu.Lock()
		p.turnWaits.Add(1)
		for p.chunkCycles[x].Load() < c {
			p.turn.Wait()
		}
		p.turnWaits.Add(-1)
		p.mu.Unlock()
	}
	s := p.s
	slot := c % measureRing
	shift := time.Duration(c) * s.cfg.MeasureInterval
	n := int64(len(s.drivers))
	ring := s.slots[slot*n : (slot+1)*n]
	for i := x * measureChunk; i < min((x+1)*measureChunk, n); i++ {
		s.measure(&s.drivers[i], &ring[i], s.measureOffset(int(i))+shift)
	}
	p.chunkCycles[x].Store(c + 1)
	if p.turnWaits.Load() > 0 {
		p.mu.Lock()
		p.turn.Broadcast()
		p.mu.Unlock()
	}
	if p.done[slot].Add(1) == p.chunks {
		p.mu.Lock()
		p.ready.Broadcast()
		p.mu.Unlock()
	}
}

// open opens the next cycle on the simulation goroutine, at MN 0's tick:
// the slot of the cycle before it is free again, so the workers may run
// one cycle further ahead; then it measures the cycle's unclaimed chunks
// itself and waits for any still running elsewhere.
func (p *measurePipe) open() {
	p.cycle++
	c := p.cycle
	if ahead := c + measureRing - 1; c > 0 && ahead <= p.last {
		p.done[ahead%measureRing].Store(0)
		p.mu.Lock()
		p.limit.Store((ahead + 1) * p.chunks)
		p.more.Broadcast()
		p.mu.Unlock()
	}
	p.slot = int(c % measureRing)
	p.base = p.slot * len(p.s.drivers)
	done := &p.done[p.slot]
	for done.Load() < p.chunks {
		if j, ok := p.claim((c + 1) * p.chunks); ok {
			p.measure(j)
			continue
		}
		p.mu.Lock()
		for done.Load() < p.chunks {
			p.ready.Wait()
		}
		p.mu.Unlock()
	}
}
