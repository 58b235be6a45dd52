// Package metrics collects the measurements the experiment harness reports:
// counters, duration histograms, scalar samples and packet-loss accounts.
// The simulator core is single-threaded, so these types are plain values;
// the experiment runner aggregates across scenario runs after each run
// completes.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Histogram accumulates duration samples with exact streaming moments and
// log-spaced buckets for quantile estimation. The zero value is ready to use.
type Histogram struct {
	count   uint64
	sum     time.Duration
	sumSq   float64 // seconds², for stddev
	min     time.Duration
	max     time.Duration
	buckets [bucketCount]uint64
}

// Buckets are log-spaced from 1µs to ~17.9s with 16 buckets per octave
// above the floor; everything above the ceiling lands in the last bucket.
const (
	bucketFloor  = time.Microsecond
	bucketsPerOA = 16
	bucketCount  = 390
)

// bucketIndex returns the bucket of d: int(log2(d/floor) * bucketsPerOA),
// clamped to [0, bucketCount-1]. It reads the answer from the tables
// below instead of calling math.Log2: the key of d's bit length and the
// next four bits after its leading one names a sixteenth of an octave,
// which spans at most two bucket starts, so the walk is short.
//
//mmlint:noalloc
func bucketIndex(d time.Duration) int {
	if d <= bucketFloor {
		return 0
	}
	i := int(bucketGuess[prefixKey(d)])
	for i+1 < bucketCount && bucketStart[i+1] <= d {
		i++
	}
	return i
}

// bucketFormula is the bucket definition bucketIndex tabulates.
func bucketFormula(d time.Duration) int {
	if d <= bucketFloor {
		return 0
	}
	return min(int(math.Log2(float64(d)/float64(bucketFloor))*bucketsPerOA), bucketCount-1)
}

// prefixKey names the sixteenth of an octave d lies in: its bit length
// and the four bits after its leading one. d must exceed bucketFloor,
// which has ten bits.
func prefixKey(d time.Duration) int {
	n := bits.Len64(uint64(d))
	return n<<4 | int(uint64(d)>>(n-5))&15
}

var (
	// bucketStart[i] is the smallest duration bucketFormula puts in
	// bucket i or above (bucketStart[0] is 0).
	bucketStart [bucketCount]time.Duration
	// bucketGuess[prefixKey(d)] is the bucket of the smallest duration
	// above the floor with d's prefix: a lower bound for d's bucket.
	bucketGuess [65 << 4]uint16
)

func init() {
	// The formula is monotone in d, so a binary search finds each start.
	for i := 1; i < bucketCount; i++ {
		lo, hi := bucketFloor+1, time.Duration(math.MaxInt64)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if bucketFormula(mid) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bucketStart[i] = lo
	}
	// Keys ascend with their smallest durations, so one walk fills them.
	i := 0
	for n := bits.Len64(uint64(bucketFloor + 1)); n <= 63; n++ {
		for top := 0; top < 16; top++ {
			smallest := max(time.Duration(16|top)<<(n-5), bucketFloor+1)
			for i+1 < bucketCount && bucketStart[i+1] <= smallest {
				i++
			}
			bucketGuess[n<<4|top] = uint16(i)
		}
	}
}

func bucketUpper(i int) time.Duration {
	return time.Duration(float64(bucketFloor) * math.Pow(2, float64(i+1)/bucketsPerOA))
}

// Observe records one sample. Negative samples clamp to zero.
//
//mmlint:noalloc
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	s := d.Seconds()
	h.sumSq += s * s
	h.buckets[bucketIndex(d)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average sample, or zero with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile estimates the p-quantile (p in [0,1]) from the log buckets.
// The estimate is the upper bound of the bucket containing the quantile,
// so it is conservative within one bucket width (~4.4%).
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			u := bucketUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Merge folds other into h. The experiment runner merges per-run histograms.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	h.sumSq += other.sumSq
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// String summarises the distribution.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.count, h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.max.Round(time.Microsecond))
}

// Sample is a scalar observation series (not durations): queue depths,
// signal levels, load factors.
type Sample struct {
	count uint64
	sum   float64
	min   float64
	max   float64
}

// Observe records one value in constant space: only the count, sum and
// extremes are kept.
//
//mmlint:noalloc
func (s *Sample) Observe(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
}

// Count returns the number of observations.
func (s *Sample) Count() uint64 { return s.count }

// Mean returns the average, or zero with no samples.
func (s *Sample) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.max }
