// Package dofix seeds detorder violations: effectful map ranges,
// order-dependent writes, wall clocks, global rand and bare goroutines.
package dofix

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

func effectInRange(node *netsim.Node, l *netsim.Link, peers map[uint32]*netsim.Node) {
	for range peers {
		_ = node.Send(l, packet.New()) // want "Node.Send inside a map range"
	}
}

func postInRange(ln *simtime.Line, fns map[uint32]func()) {
	for _, fn := range fns {
		ln.Post(fn) // want "Line.Post inside a map range"
	}
}

func armInRange(s *simtime.Scheduler, fns map[uint32]func()) {
	for _, fn := range fns {
		s.EveryNow(1, fn) // want "Scheduler.EveryNow inside a map range"
	}
}

func resetInRange(tickers map[uint32]*simtime.Ticker) {
	for _, t := range tickers {
		t.Reset(1) // want "Ticker.Reset inside a map range"
	}
}

func rearmInRange(s *simtime.Scheduler, tickers map[uint32]*simtime.Ticker) {
	for k, t := range tickers {
		tickers[k] = s.Rearm(t, 1, nil) // want "Scheduler.Rearm inside a map range"
	}
}

func sortedKeysClean(node *netsim.Node, l *netsim.Link, peers map[uint32]*netsim.Node) {
	keys := make([]uint32, 0, len(peers))
	for k := range peers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		_ = node.Send(l, packet.NewFrom(0, k))
	}
}

func orderedWaiver(node *netsim.Node, l *netsim.Link, m map[int]int) {
	//mmlint:ordered fixture: pretend the effect is order-free here
	for range m {
		_ = node.Send(l, packet.New())
	}
}

var lastGlobal int

func writes(m map[int]int) (int, float64) {
	total := 0
	var lastKey int
	for k, v := range m {
		total += v     // integer accumulation is order-free
		lastKey = k    // want "order-dependent write to lastKey"
		lastGlobal = k // want "order-dependent write to lastGlobal"
	}
	m2 := make(map[int]int, len(m))
	for k, v := range m {
		m2[k] = v    // keyed by the range key: allowed
		delete(m, k) // delete by the range key: allowed
	}
	var sum float64
	for _, v := range m2 {
		sum += float64(v) // want "order-dependent write to sum"
	}
	var collected []int
	for k := range m2 {
		collected = append(collected, k) // want "append to collected which is never sorted"
	}
	for k := range m2 {
		delete(m2, k+1) // want "delete with a non-range-key"
	}
	return total + len(collected) + lastKey, sum
}

func bans() int64 {
	t := time.Now()                           // want "time.Now in simulator code"
	go func() {}()                            // want "bare goroutine"
	return t.UnixNano() + int64(rand.Intn(4)) // want "global math/rand.Intn draw"
}

func telemetryInRange(tr *obs.Trace, mon *obs.Monitor, cells map[int]int64) {
	for _, at := range cells {
		tr.Emit(at, 1, 0, 0, 0, 0) // want "Trace.Emit inside a map range"
		mon.Eval(at)               // want "Monitor.Eval inside a map range"
	}
}

func telemetrySortedClean(tr *obs.Trace, cells map[int]int64) {
	keys := make([]int, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		tr.Emit(cells[k], 1, 0, 0, 0, 0)
	}
}
