package simtime

import (
	"slices"
	"testing"
	"time"
)

// refTicker is the reference a Ticker must match: a dedicated heap event
// that re-schedules itself with s.At(now+interval) after every firing.
type refTicker struct {
	s        *Scheduler
	interval time.Duration
	fn       func()
	ev       Event
	stopped  bool
	ticks    uint64
}

func (t *refTicker) fire() {
	t.ticks++
	t.fn()
	if !t.stopped {
		t.ev = t.s.At(t.s.Now()+t.interval, t.fire)
	}
}

func (t *refTicker) Stop() {
	if !t.stopped {
		t.stopped = true
		t.ev.Cancel()
	}
}

func (t *refTicker) Ticks() uint64 { return t.ticks }

// modelTicker is what the script needs from either implementation.
type modelTicker interface {
	Stop()
	Ticks() uint64
}

// fireRec is one fired callback: when it ran, which script object it
// was, and the engine's Len/Fired as that callback saw them.
type fireRec struct {
	at    time.Duration
	id    int
	len   int
	fired uint64
}

// scriptCover counts the script branches a run took, so the test can
// insist every case it claims to cover was hit.
type scriptCover struct {
	stopSelf, stopSameInstant, stopLater, everyNowBehind int
	// runAhead counts callbacks of the real engine that ran at a later
	// instant than the one before them with no heap pop in between: a
	// delay line's batch advancing the clock itself.
	runAhead int
}

// fifoDelay is the AfterFIFO delay the script uses; one ticker interval
// equals it, so a ticker line and an AfterFIFO line share a delay.
const fifoDelay = 10 * time.Millisecond

var modelIntervals = []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 7 * time.Millisecond, fifoDelay}

// runTickerScript drives one seeded random script of ticker creation,
// Stop and one-shots on a fresh scheduler. With ref set, tickers are
// refTickers; otherwise they are real Tickers. Every decision is drawn
// inside a callback from one script rng, so two runs stay in lockstep
// exactly as long as their fire logs agree.
func runTickerScript(seed int64, ref bool) ([]fireRec, uint64, int, []uint64, scriptCover) {
	s := NewScheduler()
	r := NewRand(seed)
	var (
		log     []fireRec
		tickers []modelTicker
		refs    []*refTicker
		cov     scriptCover
		nextID  = 1000 // one-shot ids; ticker ids are their index
	)
	var lastPops uint64
	record := func(id int) {
		if !ref && len(log) > 0 && s.Now() > log[len(log)-1].at && s.pops == lastPops {
			cov.runAhead++
		}
		lastPops = s.pops
		log = append(log, fireRec{s.Now(), id, s.Len(), s.Fired()})
	}
	var arm func(interval time.Duration, now bool)
	arm = func(interval time.Duration, now bool) {
		id := len(tickers)
		var self modelTicker
		fn := func() {
			record(id)
			switch p := r.Float64(); {
			case p < 0.06:
				self.Stop()
				cov.stopSelf++
			case p < 0.20:
				k := r.Intn(len(tickers))
				if ref && k != id && !refs[k].stopped && refs[k].interval == interval {
					if at := refs[k].ev.At(); at == s.Now() {
						cov.stopSameInstant++
					} else if at > s.Now() {
						cov.stopLater++
					}
				}
				tickers[k].Stop()
			case p < 0.30 && len(tickers) < 48:
				arm(modelIntervals[r.Intn(len(modelIntervals))], r.Bool(0.5))
			case p < 0.40:
				oneShot := nextID
				nextID++
				if r.Bool(0.5) {
					s.AfterFIFO(fifoDelay, func() { record(oneShot) })
				} else {
					s.At(s.Now()+time.Duration(r.Intn(4))*time.Millisecond, func() { record(oneShot) })
				}
			}
		}
		if ref {
			rt := &refTicker{s: s, interval: interval, fn: fn}
			first := s.Now() + interval
			if now {
				first = s.Now()
				for _, o := range refs {
					if o.interval == interval && !o.stopped && o.ev.At() > s.Now() {
						cov.everyNowBehind++
						break
					}
				}
			}
			rt.ev = s.At(first, rt.fire)
			refs = append(refs, rt)
			self = rt
		} else if now {
			self = s.EveryNow(interval, fn)
		} else {
			self = s.Every(interval, fn)
		}
		tickers = append(tickers, self)
	}
	// Spawners on a 1 ms grid: several tickers, Every and EveryNow mixed,
	// created at one instant, often while same-interval tickers are armed
	// for later.
	for i := 0; i < 12; i++ {
		at := time.Duration(r.Intn(30)) * time.Millisecond
		k := 1 + r.Intn(3)
		interval := modelIntervals[r.Intn(len(modelIntervals))]
		s.At(at, func() {
			for j := 0; j < k; j++ {
				arm(interval, j%2 == 1)
			}
		})
	}
	// Run in RunUntil slices to random deadlines, on and off the 1 ms
	// grid every event lies on, so delay-line batches are cut at their
	// horizon mid-sweep. Each slice ends with a log entry (id -1) of the
	// clock, Len and Fired the deadline left behind. The deadlines come
	// from their own rng, so both implementations share them.
	dr := NewRand(^seed)
	for deadline := time.Duration(0); deadline < 200*time.Millisecond; {
		if dr.Bool(0.5) {
			deadline += time.Duration(dr.Intn(8)) * time.Millisecond
		} else {
			deadline += time.Duration(dr.Intn(8000)) * time.Microsecond
		}
		s.RunUntil(deadline)
		log = append(log, fireRec{s.Now(), -1, s.Len(), s.Fired()})
	}
	ticks := make([]uint64, len(tickers))
	for i, tk := range tickers {
		ticks[i] = tk.Ticks()
	}
	return log, s.Fired(), s.Len(), ticks, cov
}

// A Ticker must be observably identical to a dedicated self-re-arming
// heap event: same (time, id) fire order with the same Now() inside every
// callback, same Len and Fired as every callback saw them, at every
// RunUntil deadline and at the end, same tick counts — across several
// intervals (one shared with an AfterFIFO delay), Every and EveryNow
// created at one instant behind same-interval tickers armed for later,
// Stop of self, of a ticker due at the same instant and of a later-phase
// one from inside callbacks, and At/AfterFIFO one-shots on the same
// instants.
func TestTickerMatchesDedicatedEvents(t *testing.T) {
	var total scriptCover
	for seed := int64(1); seed <= 40; seed++ {
		wantLog, wantFired, wantLen, wantTicks, cov := runTickerScript(seed, true)
		gotLog, gotFired, gotLen, gotTicks, gotCov := runTickerScript(seed, false)
		for i := 0; i < len(wantLog) || i < len(gotLog); i++ {
			var w, g fireRec
			if i < len(wantLog) {
				w = wantLog[i]
			}
			if i < len(gotLog) {
				g = gotLog[i]
			}
			if w != g {
				t.Fatalf("seed %d: fire %d is %+v, reference %+v (logs %d vs %d long)",
					seed, i, g, w, len(gotLog), len(wantLog))
			}
		}
		if gotFired != wantFired || gotLen != wantLen {
			t.Fatalf("seed %d: Fired=%d Len=%d, reference Fired=%d Len=%d",
				seed, gotFired, gotLen, wantFired, wantLen)
		}
		if !slices.Equal(gotTicks, wantTicks) {
			t.Fatalf("seed %d: ticks %v, reference %v", seed, gotTicks, wantTicks)
		}
		total.stopSelf += cov.stopSelf
		total.stopSameInstant += cov.stopSameInstant
		total.stopLater += cov.stopLater
		total.everyNowBehind += cov.everyNowBehind
		total.runAhead += gotCov.runAhead
	}
	if total.stopSelf == 0 || total.stopSameInstant == 0 || total.stopLater == 0 || total.everyNowBehind == 0 ||
		total.runAhead == 0 {
		t.Fatalf("script missed a case: %+v", total)
	}
	t.Logf("covered: %+v", total)
}
