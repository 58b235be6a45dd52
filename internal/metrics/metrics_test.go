package metrics

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	c.Add(5)
	if c.Value() != 7 {
		t.Fatalf("Value = %d, want 7", c.Value())
	}
}

func TestHistogramMoments(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		h.Observe(d * time.Millisecond)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 30*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 50*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	sd := h.Stddev().Seconds()
	if math.Abs(sd-math.Sqrt(0.0002)) > 1e-6 {
		t.Fatalf("Stddev = %v", h.Stddev())
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative observation not clamped: min=%v max=%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// 1..1000 ms uniformly.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	for _, tt := range []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got := h.Quantile(tt.p)
		// Log buckets are conservative within ~4.5%.
		lo := time.Duration(float64(tt.want) * 0.95)
		hi := time.Duration(float64(tt.want) * 1.06)
		if got < lo || got > hi {
			t.Errorf("Quantile(%v) = %v, want within [%v, %v]", tt.p, got, lo, hi)
		}
	}
	if h.Quantile(0) != h.Min() {
		t.Fatal("Quantile(0) should be min")
	}
	if h.Quantile(1) != h.Max() {
		t.Fatal("Quantile(1) should be max")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Stddev() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.String() != "n=0" {
		t.Fatalf("empty String = %q", h.String())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Millisecond)
	}
	for i := 101; i <= 200; i++ {
		b.Observe(time.Duration(i) * time.Millisecond)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged Count = %d", a.Count())
	}
	if a.Min() != time.Millisecond || a.Max() != 200*time.Millisecond {
		t.Fatalf("merged Min/Max = %v/%v", a.Min(), a.Max())
	}
	want := 100500 * time.Millisecond / 1000 // mean of 1..200 ms = 100.5ms
	if got := a.Mean(); got < want-time.Millisecond || got > want+time.Millisecond {
		t.Fatalf("merged Mean = %v", got)
	}
	a.Merge(nil) // must not panic
	var empty Histogram
	a.Merge(&empty)
	if a.Count() != 200 {
		t.Fatal("merging empty changed count")
	}
}

// Property: quantile is monotone in p and bounded by [min, max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(time.Duration(v%10_000_000) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q := h.Quantile(p)
			if q < prev || q < h.Min() || q > h.Max() {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Observe(v)
	}
	if s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 || s.Count() != 5 {
		t.Fatalf("stats: mean=%v min=%v max=%v n=%d", s.Mean(), s.Min(), s.Max(), s.Count())
	}
	var empty Sample
	if empty.Mean() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

// TestSampleObserveAllocFree runs a whole batch of observations per
// measured run, so amortised growth of any retained state shows up as at
// least one allocation instead of averaging away.
func TestSampleObserveAllocFree(t *testing.T) {
	const batch = 1 << 12
	var s Sample
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < batch; i++ {
			s.Observe(float64(i))
		}
	}); avg != 0 {
		t.Fatalf("%d Sample.Observe calls allocate %.0f times", batch, avg)
	}
	if s.Count() != 2*batch || s.Min() != 0 || s.Max() != batch-1 || s.Mean() != (batch-1)/2.0 {
		t.Fatalf("count=%d min=%v max=%v mean=%v", s.Count(), s.Min(), s.Max(), s.Mean())
	}
}

func TestCounterAndHistogramAllocFree(t *testing.T) {
	const batch = 1 << 12
	var c Counter
	var h Histogram
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < batch; i++ {
			c.Inc()
			c.Add(2)
			h.Observe(time.Duration(i) * time.Millisecond)
		}
	}); avg != 0 {
		t.Fatalf("%d Counter/Histogram updates allocate %.0f times", batch, avg)
	}
}

func TestLossAccountConservation(t *testing.T) {
	l := NewLossAccount()
	for i := 0; i < 100; i++ {
		l.OnSent()
	}
	for i := 0; i < 80; i++ {
		l.OnDelivered(100)
	}
	for i := 0; i < 7; i++ {
		l.OnDropped(DropHandoff)
	}
	l.OnDropped(DropQueueFull)
	l.OnDropped(DropLinkLoss)
	if l.Dropped() != 9 {
		t.Fatalf("Dropped = %d", l.Dropped())
	}
	if l.InFlight() != 11 {
		t.Fatalf("InFlight = %d", l.InFlight())
	}
	if math.Abs(l.LossRate()-0.09) > 1e-12 {
		t.Fatalf("LossRate = %v", l.LossRate())
	}
	if l.Bytes != 8000 {
		t.Fatalf("Bytes = %d", l.Bytes)
	}
}

func TestLossAccountMerge(t *testing.T) {
	a, b := NewLossAccount(), NewLossAccount()
	a.OnSent()
	a.OnDropped(DropTTL)
	b.OnSent()
	b.OnSent()
	b.OnDelivered(10)
	b.OnDropped(DropTTL)
	b.OnDropped(DropAuth)
	a.Merge(b)
	if a.Sent != 3 || a.Delivered != 1 || a.Dropped() != 3 {
		t.Fatalf("merged = %s", a)
	}
	if a.Drops[DropTTL] != 2 || a.Drops[DropAuth] != 1 {
		t.Fatalf("merged drops = %v", a.Drops)
	}
	a.Merge(nil) // must not panic
}

func TestLossAccountEmptyRate(t *testing.T) {
	l := NewLossAccount()
	if l.LossRate() != 0 || l.InFlight() != 0 {
		t.Fatal("empty account should be all zeros")
	}
}

// TestDropReasonStrings is exhaustive by construction: it walks the
// contiguous reason space from the first defined value until String
// falls through to the numeric default, so adding a DropReason without
// a String case (or with a duplicate name) fails here without the test
// needing its own reason list to maintain.
func TestDropReasonStrings(t *testing.T) {
	seen := make(map[string]DropReason)
	defined := 0
	for r := DropQueueFull; ; r++ {
		s := r.String()
		if strings.HasPrefix(s, "drop(") {
			break
		}
		if s == "" {
			t.Fatalf("DropReason %d has empty String", r)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("DropReason %d and %d share String %q", prev, r, s)
		}
		seen[s] = r
		defined++
	}
	// The walk must cover every declared reason (DropPreempted is the last).
	if want := int(DropPreempted-DropQueueFull) + 1; defined != want {
		t.Fatalf("String covers %d contiguous reasons, want %d — a reason is missing its case", defined, want)
	}
	// Undefined values must render distinctly, not collide with names.
	if s := DropReason(99).String(); s != "drop(99)" {
		t.Fatalf("undefined reason renders %q", s)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("handoffs").Inc()
	r.Histogram("latency").Observe(time.Millisecond)
	r.Sample("load").Observe(0.5)
	r.Account("voice").OnSent()
	if c := r.Counter("handoffs"); c.Value() != 1 {
		t.Fatal("Counter not shared across lookups")
	}
	names := r.Names()
	want := []string{"handoffs", "latency", "load", "voice"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names order = %v, want %v", names, want)
		}
	}
	out := r.Render()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("Render missing %q:\n%s", w, out)
		}
	}
	// Mutating the returned name slice must not corrupt the registry.
	names[0] = "corrupted"
	if r.Names()[0] != "handoffs" {
		t.Fatal("Names returned internal slice")
	}
}

// TestHistogramBucketBoundaries pins the log-bucket edge behaviour:
// values at and just past a bucket's upper bound land in adjacent
// buckets, the floor bucket absorbs everything at or below 1µs, and the
// ceiling bucket absorbs everything past the top of the range.
func TestHistogramBucketBoundaries(t *testing.T) {
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(bucketFloor); got != 0 {
		t.Errorf("bucketIndex(floor) = %d, want 0", got)
	}
	if got := bucketIndex(bucketFloor / 2); got != 0 {
		t.Errorf("bucketIndex(floor/2) = %d, want 0", got)
	}
	// Every bucket's upper bound must itself index at or below the next
	// bucket, and a value just above it strictly past the current one:
	// the two invariants Quantile's cumulative walk relies on.
	for i := 0; i < bucketCount-1; i++ {
		u := bucketUpper(i)
		at := bucketIndex(u)
		if at > i+1 {
			t.Fatalf("bucketIndex(upper(%d)) = %d, want <= %d", i, at, i+1)
		}
		past := bucketIndex(u + u/1000)
		if past < at {
			t.Fatalf("bucket index not monotone at bucket %d: %d then %d", i, at, past)
		}
	}
	// Past the ceiling everything clamps into the last bucket.
	huge := bucketUpper(bucketCount-1) * 4
	if got := bucketIndex(huge); got != bucketCount-1 {
		t.Errorf("bucketIndex(huge) = %d, want %d", got, bucketCount-1)
	}
	// And Quantile never reports past the observed max even from the
	// clamped bucket.
	var h Histogram
	h.Observe(huge)
	if q := h.Quantile(0.99); q != huge {
		t.Errorf("Quantile over ceiling bucket = %v, want clamped to max %v", q, huge)
	}
}

// TestLossAccountMergeIntoZeroValue pins the nil-map guard: merging into
// a zero-value account (embedded, never dropped anything) must not
// panic and must carry the drop attribution over.
func TestLossAccountMergeIntoZeroValue(t *testing.T) {
	var l LossAccount // Drops == nil
	o := NewLossAccount()
	o.OnSent()
	o.OnDropped(DropHandoff)
	l.Merge(o)
	if l.Sent != 1 || l.Drops[DropHandoff] != 1 {
		t.Fatalf("merge into zero value lost data: %+v", l)
	}
	// Merging an empty account into a zero value stays map-less and
	// functional.
	var l2 LossAccount
	l2.Merge(&LossAccount{})
	l2.Merge(nil)
	if l2.Dropped() != 0 {
		t.Fatalf("empty merges produced drops: %+v", l2)
	}
}

// refBucketIndex is the bucket definition bucketIndex must reproduce:
// the log formula it replaced.
func refBucketIndex(d time.Duration) int {
	if d <= bucketFloor {
		return 0
	}
	idx := int(math.Log2(float64(d)/float64(bucketFloor)) * bucketsPerOA)
	if idx >= bucketCount {
		return bucketCount - 1
	}
	return idx
}

// The table lookup must agree with the log formula on every bucket
// boundary ±1 ns, on every octave prefix edge, and on random durations
// spread over the whole int64 range.
func TestBucketIndexMatchesFormula(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if d < 0 {
			return
		}
		if got, want := bucketIndex(d), refBucketIndex(d); got != want {
			t.Fatalf("bucketIndex(%d) = %d, formula %d", d, got, want)
		}
	}
	for i := 1; i < bucketCount; i++ {
		b := bucketStart[i]
		if refBucketIndex(b) < i || refBucketIndex(b-1) >= i {
			t.Fatalf("bucketStart[%d] = %d is not the formula's first duration of bucket %d", i, b, i)
		}
		check(b - 1)
		check(b)
		check(b + 1)
	}
	for n := 5; n < 63; n++ {
		for top := time.Duration(0); top < 16; top++ {
			e := (16 | top) << (n - 5)
			check(e - 1)
			check(e)
			check(e + 1)
		}
	}
	check(math.MaxInt64)
	r := rand.New(rand.NewPCG(1, 2))
	for k := 0; k < 1_000_000; k++ {
		// A uniform exponent first, so every octave gets samples.
		check(time.Duration(r.Uint64N(1 << (1 + r.IntN(62)))))
	}
}
