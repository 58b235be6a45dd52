package metrics

import (
	"fmt"
)

// StreamStat is a bounded-memory streaming aggregate (Welford's online
// algorithm): count, mean, variance, min and max in O(1) space, for the
// population-scale runs where retaining per-sample values would grow the
// heap with the packet count.
type StreamStat struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Observe folds one value into the aggregate.
func (s *StreamStat) Observe(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// Mean returns the running mean, zero with no samples.
func (s *StreamStat) Mean() float64 { return s.mean }

// Breakdown aggregates one population class (a fleet profile) with
// strictly bounded memory: a loss account, a log-bucket latency
// histogram, a speed aggregate and event counters — no per-packet
// retention, so a 10k-MN scale run holds a handful of fixed-size
// structs per class regardless of how many packets flow.
type Breakdown struct {
	// Population is the number of MNs assigned to the class.
	Population int
	// Flows is the class's end-to-end packet account.
	Flows LossAccount
	// Latency is the class's end-to-end delivery delay distribution.
	Latency Histogram
	// Handoffs counts committed handoffs by the class's MNs.
	Handoffs Counter
	// Speed aggregates the per-MN assigned speeds (m/s).
	Speed StreamStat
	// LocationUpdates counts location-management signalling the class's
	// MNs originated: multi-tier Location/Update Location Messages,
	// Cellular IP route/paging updates, Mobile IP registrations.
	LocationUpdates Counter
	// Pages counts paging events the network spent finding the class's
	// MNs (floods for multi-tier, paging-path deliveries for Cellular
	// IP). High pages with low location updates is the idle-mode trade.
	Pages Counter
}

// NewBreakdown returns an empty class aggregate.
func NewBreakdown() *Breakdown {
	return &Breakdown{Flows: LossAccount{Drops: make(map[DropReason]uint64)}}
}

// String summarises the class on one line.
func (b *Breakdown) String() string {
	return fmt.Sprintf("mns=%d speed=%.1fm/s %s handoffs=%d locupd=%d pages=%d latency[%s]",
		b.Population, b.Speed.Mean(), b.Flows.String(), b.Handoffs.Value(),
		b.LocationUpdates.Value(), b.Pages.Value(), b.Latency.String())
}

// Breakdown returns (creating on first use) the named class aggregate.
// Scale scenarios register one per fleet profile.
func (r *Registry) Breakdown(name string) *Breakdown {
	b, ok := r.breakdowns[name]
	if !ok {
		b = NewBreakdown()
		r.breakdowns[name] = b
		r.remember(name)
	}
	return b
}
