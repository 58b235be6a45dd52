package simtime

import (
	"math"
	"testing"
	"time"
	"unsafe"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestUniformBounds(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", v)
		}
	}
}

func TestUniformDuration(t *testing.T) {
	r := NewRand(1)
	lo, hi := 10*time.Millisecond, 20*time.Millisecond
	for i := 0; i < 10000; i++ {
		v := r.UniformDuration(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("UniformDuration out of range: %v", v)
		}
	}
	if got := r.UniformDuration(hi, lo); got != hi {
		t.Fatalf("degenerate range should return lo, got %v", got)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exponential(5)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("exponential mean %v, want ~5", mean)
	}
}

func TestExponentialDurationMean(t *testing.T) {
	r := NewRand(7)
	const n = 100000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += r.ExponentialDuration(time.Second)
	}
	mean := sum / n
	if mean < 950*time.Millisecond || mean > 1050*time.Millisecond {
		t.Fatalf("exponential duration mean %v, want ~1s", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev %v, want ~2", math.Sqrt(variance))
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(<0) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(>1) returned false")
		}
	}
	// Empirical probability.
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", p)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork()
	// Draw extra from the parent; the fork must be unaffected because it
	// carries its own source seeded once at Fork time.
	r2 := NewRand(5)
	f2 := r2.Fork()
	for i := 0; i < 100; i++ {
		r2.Float64()
	}
	for i := 0; i < 100; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatal("fork stream depends on later parent draws")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

// TestRandGolden pins the generator itself: the first draws of NewRand(1)
// and of its first fork. Any change of source, seeding or distribution
// mapping changes every simulator stream, so it must show up here as a
// deliberate edit.
func TestRandGolden(t *testing.T) {
	wantFloat := [2][8]float64{
		{0.9124448103218379, 0.22435769950256057, 0.9537484413676075, 0.4779051809338659,
			0.37041996019751544, 0.9330400407294389, 0.1634615308738211, 0.8855119353346084},
		{0.6610106692224699, 0.47388078299153713, 0.5319935881918859, 0.7161974388529373,
			0.4890653492913205, 0.8017864802053372, 0.677734083244163, 0.6833736834898995},
	}
	wantIntn := [2][8]int{
		{685, 716, 5, 347, 245, 600, 221, 228},
		{805, 280, 881, 514, 509, 462, 283, 813},
	}
	streams := func() [2]*Rand { return [2]*Rand{NewRand(1), NewRand(1).Fork()} }
	for s, r := range streams() {
		for i, want := range wantFloat[s] {
			if got := r.Float64(); got != want {
				t.Fatalf("stream %d Float64 #%d = %v, want %v", s, i, got, want)
			}
		}
	}
	for s, r := range streams() {
		for i, want := range wantIntn[s] {
			if got := r.Intn(1000); got != want {
				t.Fatalf("stream %d Intn(1000) #%d = %d, want %d", s, i, got, want)
			}
		}
	}
}

func TestSiblingForksDiffer(t *testing.T) {
	parent := NewRand(21)
	const forks = 64
	seen := make(map[float64]int, forks)
	for i := 0; i < forks; i++ {
		v := parent.Fork().Float64()
		if j, dup := seen[v]; dup {
			t.Fatalf("forks %d and %d start with the same draw %v", j, i, v)
		}
		seen[v] = i
	}
}

// TestAdjacentSeedsDiffer guards the seed spreading: cells run with
// seed+i, so neighbouring seeds must not share a first draw.
func TestAdjacentSeedsDiffer(t *testing.T) {
	prev := NewRand(0).Float64()
	for s := int64(1); s <= 1001; s++ {
		cur := NewRand(s).Float64()
		if cur == prev {
			t.Fatalf("NewRand(%d) and NewRand(%d) share first draw %v", s-1, s, cur)
		}
		prev = cur
	}
}

func TestRandAllocs(t *testing.T) {
	r := NewRand(1)
	if n := testing.AllocsPerRun(100, func() { NewRand(7) }); n != 1 {
		t.Errorf("NewRand: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Fork() }); n != 1 {
		t.Errorf("Fork: %v allocs, want 1", n)
	}
	draws := []struct {
		name string
		draw func()
	}{
		{"Float64", func() { r.Float64() }},
		{"Intn", func() { r.Intn(10) }},
		{"Uniform", func() { r.Uniform(1, 2) }},
		{"UniformDuration", func() { r.UniformDuration(time.Millisecond, time.Second) }},
		{"Exponential", func() { r.Exponential(1) }},
		{"ExponentialDuration", func() { r.ExponentialDuration(time.Second) }},
		{"Normal", func() { r.Normal(0, 1) }},
		{"LogNormal", func() { r.LogNormal(0, 1) }},
		{"Bool", func() { r.Bool(0.5) }},
	}
	for _, d := range draws {
		if n := testing.AllocsPerRun(100, d.draw); n != 0 {
			t.Errorf("%s: %v allocs per draw, want 0", d.name, n)
		}
	}
}

func TestRandSize(t *testing.T) {
	if n := unsafe.Sizeof(Rand{}); n > 64 {
		t.Fatalf("Rand is %d bytes, want <= 64", n)
	}
}
