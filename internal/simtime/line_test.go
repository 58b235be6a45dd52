package simtime

import (
	"testing"
	"time"
)

// AfterFIFO must be observably identical to After for constant delays:
// same virtual firing times, same FIFO interleaving against heap events
// at the same instant.
func TestAfterFIFOMatchesAfterOrdering(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.AfterFIFO(10*time.Millisecond, func() { order = append(order, "line1") })
	s.After(10*time.Millisecond, func() { order = append(order, "heap1") })
	s.AfterFIFO(10*time.Millisecond, func() { order = append(order, "line2") })
	s.After(10*time.Millisecond, func() { order = append(order, "heap2") })
	s.AfterFIFO(5*time.Millisecond, func() { order = append(order, "early") })
	s.Run()
	want := []string{"early", "line1", "heap1", "line2", "heap2"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// Cancelling line entries — front, middle, and after the pooled event is
// already up — must suppress exactly those callbacks.
func TestAfterFIFOCancel(t *testing.T) {
	s := NewScheduler()
	var fired []int
	evs := make([]Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = s.AfterFIFO(10*time.Millisecond, func() { fired = append(fired, i) })
	}
	if !evs[0].Cancel() { // front, pooled event already scheduled for it
		t.Fatal("front cancel reported not pending")
	}
	if !evs[2].Cancel() { // middle, collected lazily
		t.Fatal("middle cancel reported not pending")
	}
	if evs[2].Cancel() {
		t.Fatal("double cancel reported pending")
	}
	if evs[2].Pending() {
		t.Fatal("cancelled entry still pending")
	}
	if !evs[3].Pending() {
		t.Fatal("live entry not pending")
	}
	s.Run()
	want := []int{1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// A same-instant burst through one line must fire in FIFO order and run
// to completion even when callbacks keep appending to the line.
func TestAfterFIFOSameInstantBurst(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.At(time.Millisecond, func() {
		for i := 0; i < 100; i++ {
			i := i
			s.AfterFIFO(0, func() {
				fired = append(fired, i)
				if i == 0 { // chain another same-instant entry mid-batch
					s.AfterFIFO(0, func() { fired = append(fired, 100) })
				}
			})
		}
	})
	s.Run()
	if len(fired) != 101 {
		t.Fatalf("fired %d callbacks, want 101", len(fired))
	}
	for i := 0; i < 100; i++ {
		if fired[i] != i {
			t.Fatalf("burst out of order at %d: %v", i, fired[:i+1])
		}
	}
	if fired[100] != 100 {
		t.Fatalf("chained entry fired out of order: %v", fired[95:])
	}
}

// Line scheduling must stay allocation-free in steady state and keep the
// heap at one entry per line.
func TestAfterFIFOAllocFreeAndFlatHeap(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.AfterFIFO(time.Millisecond, fn)
		s.AfterFIFO(5*time.Millisecond, fn)
	}
	if q := s.Queued(); q > 2 {
		t.Fatalf("two lines occupy %d heap entries, want <= 2", q)
	}
	for s.Step() {
	}
	avg := testing.AllocsPerRun(2000, func() {
		s.AfterFIFO(time.Millisecond, fn)
		for s.Step() {
		}
	})
	if avg != 0 {
		t.Fatalf("line schedule/fire cycle allocates %.1f allocs/op, want 0", avg)
	}
}

// Negative delays clamp to zero, like After.
func TestAfterFIFONegativeDelayClamps(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.AfterFIFO(-time.Second, func() { fired = true })
	s.RunUntil(0)
	if !fired {
		t.Fatal("negative-delay entry never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v", s.Now())
	}
}

// A cancelled front entry's no-op pooled fire must not count as an
// executed event — Fired() semantics match dedicated After events.
func TestAfterFIFOCancelledFrontNotCountedFired(t *testing.T) {
	s := NewScheduler()
	s.AfterFIFO(time.Millisecond, func() {}).Cancel()
	s.Run()
	if got := s.Fired(); got != 0 {
		t.Fatalf("Fired=%d after running only a cancelled entry, want 0", got)
	}
	// And a mixed line still counts exactly the executed callbacks.
	s.AfterFIFO(time.Millisecond, func() {})
	s.AfterFIFO(time.Millisecond, func() {}).Cancel()
	s.AfterFIFO(time.Millisecond, func() {})
	s.Run()
	if got := s.Fired(); got != 2 {
		t.Fatalf("Fired=%d, want 2 executed callbacks", got)
	}
}

// A timer re-armed per packet (Cancel, then AfterFIFO with the same
// delay) behind another MN's pending entry must not hold an arena slot
// per cancelled arming: Cancel frees the entry's slot at once, and the
// ring compacts the stale handles the re-arms leave behind it.
func TestAfterFIFORearmKeepsArenaFlat(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	s.AfterFIFO(2*time.Second, fn) // another MN's timer, at the front
	ev := s.AfterFIFO(2*time.Second, fn)
	for i := 0; i < 100000; i++ {
		ev.Cancel()
		ev = s.AfterFIFO(2*time.Second, fn)
		if n := len(s.slots); n > 4 {
			t.Fatalf("re-arm %d: arena holds %d slots, want <= 4", i, n)
		}
	}
	if n := len(s.lines[2*time.Second].ring); n > 16 {
		t.Fatalf("ring grew to %d handles for two live entries", n)
	}
	if s.Len() != 2 || !ev.Pending() {
		t.Fatalf("Len=%d pending=%v, want the two live timers", s.Len(), ev.Pending())
	}
	s.Run()
	if s.Fired() != 2 || s.Now() != 2*time.Second {
		t.Fatalf("Fired=%d at %v, want both live timers at 2s", s.Fired(), s.Now())
	}
}

// A cancelled line entry's slot is recycled by the very next schedule.
// The old handle must stay dead (Cancel and Pending report false, and
// its stale ring handle never runs anything), the new occupant must
// still fire, and Len/Fired must count only live callbacks — whether the
// slot goes to a heap event or to a later entry of the same line.
func TestAfterFIFOCancelledSlotReuse(t *testing.T) {
	for _, viaLine := range []bool{false, true} {
		s := NewScheduler()
		var fired []string
		first := s.AfterFIFO(time.Millisecond, func() { fired = append(fired, "first") })
		old := s.AfterFIFO(time.Millisecond, func() { fired = append(fired, "old") })
		if !old.Cancel() {
			t.Fatal("cancel of a pending line entry reported false")
		}
		newFn := func() { fired = append(fired, "new") }
		var nu Event
		if viaLine {
			nu = s.AfterFIFO(time.Millisecond, newFn)
		} else {
			nu = s.After(3*time.Millisecond, newFn)
		}
		if nu.idx != old.idx {
			t.Fatalf("viaLine=%v: new event took slot %d, want the freed slot %d", viaLine, nu.idx, old.idx)
		}
		if old.Cancel() || old.Pending() {
			t.Fatalf("viaLine=%v: stale handle still reports pending", viaLine)
		}
		if !nu.Pending() || !first.Pending() {
			t.Fatalf("viaLine=%v: live events not pending", viaLine)
		}
		if s.Len() != 2 {
			t.Fatalf("viaLine=%v: Len=%d, want 2 live callbacks", viaLine, s.Len())
		}
		s.Run()
		if len(fired) != 2 || fired[0] != "first" || fired[1] != "new" {
			t.Fatalf("viaLine=%v: fired %v, want [first new]", viaLine, fired)
		}
		if s.Fired() != 2 || s.Len() != 0 {
			t.Fatalf("viaLine=%v: Fired=%d Len=%d, want 2 and 0", viaLine, s.Fired(), s.Len())
		}
	}
}

// Cancelling entries in the middle of a line that keeps wrapping its ring
// must still fire every live entry once, in FIFO order, while compaction
// keeps the ring sized by the live entries. The arrival rate alternates
// between one and two entries per millisecond so the ring also fills,
// and compacts in place, with its head mid-buffer.
func TestAfterFIFOCompactionKeepsOrder(t *testing.T) {
	s := NewScheduler()
	var fired, want []int
	var evs []Event
	canceled := make(map[int]bool)
	for step := 0; step < 4000; step++ {
		s.RunUntil(time.Duration(step) * time.Millisecond)
		for k := 0; k <= step/1000%2; k++ {
			i := len(evs)
			evs = append(evs, s.AfterFIFO(100*time.Millisecond, func() { fired = append(fired, i) }))
			if j := i - 1; j >= 0 && j%3 != 0 {
				evs[j].Cancel()
				canceled[j] = true
			}
		}
	}
	if n := len(s.lines[100*time.Millisecond].ring); n > 256 {
		t.Fatalf("ring grew to %d handles for ~70 live entries", n)
	}
	s.Run()
	for i := range evs {
		if !canceled[i] {
			want = append(want, i)
		}
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d entries, want %d", len(fired), len(want))
	}
	for k := range want {
		if fired[k] != want[k] {
			t.Fatalf("fired[%d]=%d, want %d", k, fired[k], want[k])
		}
	}
	if s.Fired() != uint64(len(want)) {
		t.Fatalf("Fired=%d, want %d", s.Fired(), len(want))
	}
}

// Same-instant entries of one line that each relay into that line — a
// frame handed hop to hop over equal link delays — must run as one batch
// that leaves the heap alone: the firing line re-syncs its pooled event
// once, after the batch, so no callback sees a heap entry.
func TestAfterFIFORelayKeepsHeapFlat(t *testing.T) {
	const n, d, rounds = 64, 5 * time.Millisecond, 10
	s := NewScheduler()
	calls := 0
	var relay func()
	relay = func() {
		calls++
		if q := s.Queued(); q != 0 {
			t.Fatalf("callback %d at %v sees %d heap entries, want 0", calls, s.Now(), q)
		}
		s.AfterFIFO(d, relay)
	}
	for i := 0; i < n; i++ {
		s.AfterFIFO(d, relay)
	}
	s.RunUntil(rounds * d)
	if calls != rounds*n || s.Fired() != uint64(calls) {
		t.Fatalf("ran %d callbacks with Fired=%d, want %d of each", calls, s.Fired(), rounds*n)
	}
	if s.Len() != n || s.Queued() != 1 {
		t.Fatalf("Len=%d Queued=%d after the run, want %d entries behind 1 heap entry", s.Len(), s.Queued(), n)
	}
}

// relayDelays are the relay script's AfterFIFO delays and ticker
// intervals: hop delays like the tiered data path's, plus zero for
// same-instant chains.
var relayDelays = []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}

// relayCover counts the script branches a line run took: relays that
// landed while their line still held a same-instant entry, Cancels of
// entries in a firing line, and Stops of a ticker due now in its own
// firing line.
type relayCover struct {
	relayMidBatch, cancelFiring, stopFiring, posts, cancelPosted int
}

// dueNow reports whether ln still holds a live entry due at the current
// instant, i.e. whether a relay into it lands in the middle of a batch.
func dueNow(ln *Line) bool {
	for k := 0; ln != nil && k < ln.count; k++ {
		if e := &ln.ring[(ln.head+k)&(len(ln.ring)-1)]; ln.live(e) {
			return e.at == ln.s.Now()
		}
	}
	return false
}

// runRelayScript drives one seeded random script of packet relays,
// Cancels, Ticker Stops and unrelated At and After one-shots. With fifo
// set, packets ride AfterFIFO or handle-less Line posts and tickers are
// real Tickers (Every and EveryNow); otherwise every packet is a
// dedicated After event and every ticker a refTicker — a heap-only
// reference. As in
// runTickerScript, every decision is drawn inside a callback from one
// script rng, so the two runs stay in lockstep while their logs agree.
// A successful Cancel is logged as a record with id -1-k.
func runRelayScript(seed int64, fifo bool) ([]fireRec, uint64, int, relayCover) {
	s := NewScheduler()
	r := NewRand(seed)
	var (
		log     []fireRec
		evs     []Event
		lineOf  []time.Duration
		tickers []modelTicker
		cov     relayCover
		nextID  = 1000 // packet and one-shot ids; ticker ids are their index
	)
	record := func(id int) { log = append(log, fireRec{s.Now(), id, s.Len(), s.Fired()}) }
	var (
		send func(d time.Duration, hops int)
		arm  func(interval time.Duration, now bool)
	)
	// act is the random step every callback takes; d is the caller's own
	// line (or interval) and hops bounds how far a relay chain goes.
	act := func(d time.Duration, hops int) {
		switch p := r.Float64(); {
		case p < 0.45 && hops > 0:
			if fifo && dueNow(s.lines[d]) {
				cov.relayMidBatch++
			}
			send(d, hops-1)
		case p < 0.60 && len(evs) > 0:
			k := r.Intn(len(evs))
			if fifo && evs[k].Pending() && s.lines[lineOf[k]].firing {
				cov.cancelFiring++
			}
			if evs[k] == (Event{}) {
				cov.cancelPosted++
			}
			if evs[k].Cancel() {
				log = append(log, fireRec{s.Now(), -1 - k, s.Len(), s.Fired()})
			}
		case p < 0.70 && len(tickers) > 0:
			tk := tickers[r.Intn(len(tickers))]
			if rt, ok := tk.(*Ticker); ok && !rt.stopped && rt.ln.firing && rt.ev.At() == s.Now() {
				cov.stopFiring++
			}
			tk.Stop()
		case p < 0.80:
			id := nextID
			nextID++
			if d := time.Duration(r.Intn(3)) * time.Millisecond; r.Bool(0.5) {
				s.At(s.Now()+d, func() { record(id) })
			} else {
				s.After(d, func() { record(id) })
			}
		case p < 0.90 && hops > 0:
			send(relayDelays[r.Intn(len(relayDelays))], hops-1)
		case p < 0.93 && len(tickers) < 24:
			arm(relayDelays[1+r.Intn(len(relayDelays)-1)], r.Bool(0.5))
		}
	}
	send = func(d time.Duration, hops int) {
		id := nextID
		nextID++
		fn := func() {
			record(id)
			act(d, hops)
		}
		// A third of the packets are posted without a handle; both runs
		// record the zero Event for them, so a Cancel of one is a no-op
		// on either side.
		switch post := r.Bool(0.35); {
		case post && fifo:
			s.Line(d).Post(fn)
			evs = append(evs, Event{})
			cov.posts++
		case post:
			s.After(d, fn)
			evs = append(evs, Event{})
		case fifo:
			evs = append(evs, s.AfterFIFO(d, fn))
		default:
			evs = append(evs, s.After(d, fn))
		}
		lineOf = append(lineOf, d)
	}
	arm = func(interval time.Duration, now bool) {
		id := len(tickers)
		fn := func() {
			record(id)
			act(interval, 4)
		}
		switch {
		case fifo && now:
			tickers = append(tickers, s.EveryNow(interval, fn))
		case fifo:
			tickers = append(tickers, s.Every(interval, fn))
		default:
			rt := &refTicker{s: s, interval: interval, fn: fn}
			first := s.Now() + interval
			if now {
				first = s.Now()
			}
			rt.ev = s.At(first, rt.fire)
			tickers = append(tickers, rt)
		}
	}
	// Bursts on a 1 ms grid: several packets of one delay sent at one
	// instant, so lines fire same-instant batches, and a few tickers on
	// the non-zero delays.
	for i := 0; i < 40; i++ {
		at := time.Duration(r.Intn(60)) * time.Millisecond
		k := 1 + r.Intn(6)
		d := relayDelays[r.Intn(len(relayDelays))]
		s.At(at, func() {
			for j := 0; j < k; j++ {
				send(d, 6)
			}
		})
	}
	for i := 0; i < 6; i++ {
		arm(relayDelays[1+r.Intn(len(relayDelays)-1)], i%2 == 1)
	}
	s.RunUntil(150 * time.Millisecond)
	return log, s.Fired(), s.Len(), cov
}

// A line whose callbacks relay into it — through AfterFIFO or a
// handle-less post — cancel its entries or stop tickers in the firing
// ticker line mid-batch must stay observably identical to dedicated
// After events: same (time, id) fire and cancel log, same Len and Fired
// as every callback saw them and at the end.
func TestAfterFIFORelayMatchesAfter(t *testing.T) {
	var total relayCover
	for seed := int64(1); seed <= 40; seed++ {
		wantLog, wantFired, wantLen, _ := runRelayScript(seed, false)
		gotLog, gotFired, gotLen, cov := runRelayScript(seed, true)
		for i := 0; i < len(wantLog) || i < len(gotLog); i++ {
			var w, g fireRec
			if i < len(wantLog) {
				w = wantLog[i]
			}
			if i < len(gotLog) {
				g = gotLog[i]
			}
			if w != g {
				t.Fatalf("seed %d: record %d is %+v, reference %+v (logs %d vs %d long)",
					seed, i, g, w, len(gotLog), len(wantLog))
			}
		}
		if gotFired != wantFired || gotLen != wantLen {
			t.Fatalf("seed %d: Fired=%d Len=%d, reference Fired=%d Len=%d",
				seed, gotFired, gotLen, wantFired, wantLen)
		}
		total.relayMidBatch += cov.relayMidBatch
		total.cancelFiring += cov.cancelFiring
		total.stopFiring += cov.stopFiring
		total.posts += cov.posts
		total.cancelPosted += cov.cancelPosted
	}
	if total.relayMidBatch == 0 || total.cancelFiring == 0 || total.stopFiring == 0 ||
		total.posts == 0 || total.cancelPosted == 0 {
		t.Fatalf("script missed a case: %+v", total)
	}
	t.Logf("covered: %+v", total)
}
