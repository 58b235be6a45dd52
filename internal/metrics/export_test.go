package metrics

import (
	"math"
	"time"
)

// Aggregate accessors and merges no run path calls. The moment, merge and
// histogram tests use them as oracles for the streaming aggregates.

// Count returns the number of observations.
func (s *StreamStat) Count() uint64 { return s.n }

// Min returns the smallest observation.
func (s *StreamStat) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *StreamStat) Max() float64 { return s.max }

// Std returns the sample standard deviation.
func (s *StreamStat) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Merge folds other into s (parallel-variance combination).
func (s *StreamStat) Merge(other *StreamStat) {
	if other == nil || other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	n := float64(s.n + other.n)
	d := other.mean - s.mean
	s.m2 += other.m2 + d*d*float64(s.n)*float64(other.n)/n
	s.mean += d * float64(other.n) / n
	s.n += other.n
}

// Merge folds another class aggregate into b, field-wise: populations
// and counters add, the loss accounts / latency histograms / speed
// aggregates merge through their own combination rules; the float
// fields (Welford mean/variance) are associative up to floating-point
// rounding, everything else exactly.
func (b *Breakdown) Merge(o *Breakdown) {
	if o == nil {
		return
	}
	b.Population += o.Population
	b.Flows.Merge(&o.Flows)
	b.Latency.Merge(&o.Latency)
	b.Handoffs.Add(o.Handoffs.Value())
	b.Speed.Merge(&o.Speed)
	b.LocationUpdates.Add(o.LocationUpdates.Value())
	b.Pages.Add(o.Pages.Value())
}

// Min returns the smallest sample, or zero with no samples.
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Stddev returns the sample standard deviation.
func (h *Histogram) Stddev() time.Duration {
	if h.count < 2 {
		return 0
	}
	mean := h.Mean().Seconds()
	variance := h.sumSq/float64(h.count) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return time.Duration(math.Sqrt(variance) * float64(time.Second))
}

// InFlight returns packets sent but neither delivered nor dropped.
func (l *LossAccount) InFlight() uint64 {
	done := l.Delivered + l.Dropped()
	if done > l.Sent {
		return 0
	}
	return l.Sent - done
}

// Merge folds another account into this one. A zero-value receiver (nil
// Drops map, as in an embedded LossAccount that never saw a drop) grows
// its map on demand instead of panicking.
func (l *LossAccount) Merge(o *LossAccount) {
	if o == nil {
		return
	}
	l.Sent += o.Sent
	l.Delivered += o.Delivered
	l.Bytes += o.Bytes
	if l.Drops == nil && len(o.Drops) > 0 {
		l.Drops = make(map[DropReason]uint64, len(o.Drops))
	}
	for r, n := range o.Drops {
		l.Drops[r] += n
	}
}
