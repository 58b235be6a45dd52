package radio

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/simtime"
)

func TestMeanRSSIMonotoneDecreasing(t *testing.T) {
	for _, p := range []Params{MacroParams(), MicroParams(), PicoParams()} {
		prev := math.Inf(1)
		for d := 1.0; d <= 10000; d *= 1.5 {
			got := p.MeanRSSI(d)
			if got >= prev {
				t.Fatalf("RSSI not decreasing at d=%v: %v >= %v", d, got, prev)
			}
			prev = got
		}
	}
}

func TestMeanRSSIClampsUnderOneMetre(t *testing.T) {
	p := MicroParams()
	if p.MeanRSSI(0) != p.MeanRSSI(1) || p.MeanRSSI(0.5) != p.MeanRSSI(1) {
		t.Fatal("sub-metre distances must clamp to reference distance")
	}
}

func TestTierUsabilityRanges(t *testing.T) {
	// Tier selection is a policy decision (speed/resources) made by the
	// multi-tier layer, not raw RSSI — a macro tower out-powers a pico
	// cell everywhere. What radio must guarantee is the usability
	// footprint of each tier: pico usable close-in but not at 2 km;
	// macro usable across its whole nominal range.
	pico, micro, macro := PicoParams(), MicroParams(), MacroParams()
	sel := DefaultSelector()
	if pico.MeanRSSI(20) < sel.MinRSSIDBm {
		t.Fatalf("pico unusable at 20m: %v", pico.MeanRSSI(20))
	}
	if pico.MeanRSSI(2000) >= sel.MinRSSIDBm {
		t.Fatalf("pico usable at 2km: %v", pico.MeanRSSI(2000))
	}
	if micro.MeanRSSI(micro.MaxRange) < sel.MinRSSIDBm-3 {
		t.Fatalf("micro badly unusable at nominal range: %v", micro.MeanRSSI(micro.MaxRange))
	}
	if macro.MeanRSSI(2000) < sel.MinRSSIDBm {
		t.Fatalf("macro unusable at 2km: %v", macro.MeanRSSI(2000))
	}
}

func TestRSSIShadowingStats(t *testing.T) {
	p := MicroParams()
	rng := simtime.NewRand(42)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := p.RSSI(100, rng)
		sum += v
		sq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-p.MeanRSSI(100)) > 0.2 {
		t.Fatalf("shadowed mean %v, want ~%v", mean, p.MeanRSSI(100))
	}
	if math.Abs(sd-p.ShadowSigmaDB) > 0.2 {
		t.Fatalf("shadow sigma %v, want ~%v", sd, p.ShadowSigmaDB)
	}
	// Nil RNG is deterministic.
	if p.RSSI(100, nil) != p.MeanRSSI(100) {
		t.Fatal("nil rng should return mean")
	}
}

func TestSNR(t *testing.T) {
	p := MicroParams()
	if got := p.SNR(-90); got != -90-p.NoiseFloorDBm {
		t.Fatalf("SNR = %v", got)
	}
}

func TestRangeForRSSIInvertsMeanRSSI(t *testing.T) {
	for _, p := range []Params{MacroParams(), MicroParams(), PicoParams()} {
		d := p.RangeForRSSI(-95)
		back := p.MeanRSSI(d)
		if math.Abs(back-(-95)) > 0.01 {
			t.Fatalf("RangeForRSSI round trip: d=%v rssi=%v", d, back)
		}
	}
}

func TestLossProbabilityMonotone(t *testing.T) {
	prev := 1.1
	for snr := -10.0; snr <= 40; snr += 0.5 {
		p := LossProbability(snr)
		if p < 0 || p > 1 {
			t.Fatalf("loss probability %v out of range", p)
		}
		if p > prev {
			t.Fatalf("loss probability not monotone at snr=%v", snr)
		}
		prev = p
	}
	if p := LossProbability(-10); p < 0.99 {
		t.Fatalf("deep fade loss %v, want ~1", p)
	}
	if p := LossProbability(30); p > 0.001 {
		t.Fatalf("clear channel loss %v, want ~floor", p)
	}
	if p := LossProbability(100); p < 0.0005-1e-12 {
		t.Fatalf("loss floor violated: %v", p)
	}
}

func TestSelectorPrefersStrongest(t *testing.T) {
	sel := DefaultSelector()
	got := sel.Best(NoCell, []Signal{
		{Cell: 1, RSSIDBm: -80, InRange: true},
		{Cell: 2, RSSIDBm: -60, InRange: true},
		{Cell: 3, RSSIDBm: -70, InRange: true},
	})
	if got != 2 {
		t.Fatalf("Best = %d, want 2", got)
	}
}

func TestSelectorHysteresisSuppressesPingPong(t *testing.T) {
	sel := Selector{HysteresisDB: 4, MinRSSIDBm: -95}
	// Challenger only 2 dB better: keep incumbent.
	got := sel.Best(1, []Signal{
		{Cell: 1, RSSIDBm: -80, InRange: true},
		{Cell: 2, RSSIDBm: -78, InRange: true},
	})
	if got != 1 {
		t.Fatalf("2dB challenger won: %d", got)
	}
	// 5 dB better: switch.
	got = sel.Best(1, []Signal{
		{Cell: 1, RSSIDBm: -80, InRange: true},
		{Cell: 2, RSSIDBm: -75, InRange: true},
	})
	if got != 2 {
		t.Fatalf("5dB challenger lost: %d", got)
	}
}

func TestSelectorDropsUnusableIncumbent(t *testing.T) {
	sel := DefaultSelector()
	// Incumbent below sensitivity: any usable challenger wins outright.
	got := sel.Best(1, []Signal{
		{Cell: 1, RSSIDBm: -99, InRange: true},
		{Cell: 2, RSSIDBm: -94, InRange: true},
	})
	if got != 2 {
		t.Fatalf("unusable incumbent kept: %d", got)
	}
	// Incumbent out of range: same.
	got = sel.Best(1, []Signal{
		{Cell: 1, RSSIDBm: -60, InRange: false},
		{Cell: 2, RSSIDBm: -90, InRange: true},
	})
	if got != 2 {
		t.Fatalf("out-of-range incumbent kept: %d", got)
	}
}

func TestSelectorNoUsableCandidates(t *testing.T) {
	sel := DefaultSelector()
	// Nothing usable, no incumbent: NoCell.
	got := sel.Best(NoCell, []Signal{
		{Cell: 1, RSSIDBm: -99, InRange: true},
	})
	if got != NoCell {
		t.Fatalf("got %d, want NoCell", got)
	}
	// Nothing usable but incumbent still nominally in range: degrade, keep.
	got = sel.Best(1, []Signal{
		{Cell: 1, RSSIDBm: -99, InRange: true},
	})
	if got != 1 {
		t.Fatalf("degraded incumbent dropped: %d", got)
	}
	// Incumbent gone entirely.
	got = sel.Best(1, []Signal{
		{Cell: 2, RSSIDBm: -99, InRange: true},
	})
	if got != NoCell {
		t.Fatalf("vanished incumbent: got %d, want NoCell", got)
	}
	if got := sel.Best(NoCell, nil); got != NoCell {
		t.Fatalf("empty candidates: %d", got)
	}
}

// Property: the selector never picks a cell that is unusable while a usable
// one exists, and always returns either NoCell, the incumbent, or a
// candidate.
func TestSelectorSoundnessProperty(t *testing.T) {
	sel := DefaultSelector()
	prop := func(cur uint8, raw []int16) bool {
		candidates := make([]Signal, 0, len(raw))
		for i, v := range raw {
			candidates = append(candidates, Signal{
				Cell:    int32(i),
				RSSIDBm: float64(v%60) - 100, // -100..-41
				InRange: v%3 != 0,
			})
		}
		current := int(cur)
		if current > len(candidates) {
			current = NoCell
		}
		got := sel.Best(current, candidates)
		if got == NoCell {
			return true
		}
		if got == current {
			return true
		}
		for _, c := range candidates {
			if int(c.Cell) == got {
				return c.InRange && c.RSSIDBm >= sel.MinRSSIDBm
			}
		}
		return false // picked a non-candidate
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureAt(t *testing.T) {
	p := MicroParams()
	tx := geo.Pt(0, 0)
	near := MeasureAt(7, p, tx, geo.Pt(50, 0), nil)
	far := MeasureAt(7, p, tx, geo.Pt(3000, 0), nil)
	if near.Cell != 7 || !near.InRange {
		t.Fatalf("near = %+v", near)
	}
	if far.InRange {
		t.Fatal("3km should be out of micro range")
	}
	if near.RSSIDBm <= far.RSSIDBm {
		t.Fatal("near RSSI should beat far")
	}
}

// A Budget evaluates the log-distance formula exactly as written on
// Params, (10·Exponent) folded ahead of time, bit for bit, over the
// clamped, sub-metre, in-range and far distances of every preset; with
// shadowing both draw the same sample from equal-seeded streams.
func TestBudgetMatchesParams(t *testing.T) {
	rng := simtime.NewRand(3)
	for _, p := range []Params{MacroParams(), MicroParams(), PicoParams()} {
		b := p.Budget()
		for trial := 0; trial < 2000; trial++ {
			d := rng.Uniform(0, 1.5*p.MaxRange)
			if trial%10 == 0 {
				d = rng.Uniform(0, 2)
			}
			clamped := math.Max(d, 1)
			want := p.TxPowerDBm - (p.RefLossDB + 10*p.Exponent*math.Log10(clamped))
			if got := b.MeanRSSI(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v at %v m: Budget.MeanRSSI = %v, want %v", p, d, got, want)
			}
			seed := int64(trial) + 1
			if a, c := p.RSSI(d, simtime.NewRand(seed)), b.RSSI(d, simtime.NewRand(seed)); math.Float64bits(a) != math.Float64bits(c) {
				t.Fatalf("%+v at %v m: shadowed Budget.RSSI = %v, Params.RSSI = %v", p, d, c, a)
			}
		}
	}
}

// Signal stays at 16 bytes: the cell id and the range flag share one
// word beside the RSSI.
func TestSignalIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Signal{}); n != 16 {
		t.Fatalf("Signal is %d bytes, want 16", n)
	}
}
