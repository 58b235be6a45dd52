package main

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"time"
)

// refKernel is fixed work that uses only the standard library: sorting,
// hashing and a cache-missing walk over a 4 MiB ring. A run times it
// between every two pieces of timed work. The shared hosts this
// benchmark runs on drift in speed by tens of percent over minutes; the
// simulator and the kernel slow down together, so scaling each piece by
// the kernel's times just before and after it cancels most of the drift,
// and no change to the repository can make the kernel faster or slower.
// It allocates nothing while timed.
type refKernel struct {
	src, work []int
	ring      []uint32
	buf       []byte
	sink      int
	last      float64   // the latest kernel time
	times     []float64 // every kernel time
}

// refSeconds is the kernel's median time on the reference host, a
// 2-vCPU Intel Xeon at 2.1 GHz running Go 1.24. Scaled times read as
// seconds on that host at its usual speed.
const refSeconds = 0.0725

func newRefKernel() *refKernel {
	r := rand.New(rand.NewSource(1))
	k := &refKernel{src: make([]int, 100_000), work: make([]int, 100_000),
		ring: make([]uint32, 1<<20), buf: make([]byte, 64<<10)}
	for i := range k.src {
		k.src[i] = r.Int()
	}
	perm := r.Perm(len(k.ring))
	for i, p := range perm {
		k.ring[p] = uint32(perm[(i+1)%len(perm)])
	}
	return k
}

// start times the kernel before the first piece of work.
func (k *refKernel) start() {
	k.last = k.run()
	k.times = append(k.times, k.last)
}

// scale times the kernel after a piece of work that took wall seconds
// and returns the work's time at the reference host's speed: wall scaled
// by refSeconds over the mean of the kernel times before and after it.
func (k *refKernel) scale(wall float64) float64 {
	next := k.run()
	k.times = append(k.times, next)
	scaled := wall * refSeconds / ((k.last + next) / 2)
	k.last = next
	return scaled
}

// run times one pass of the kernel, in seconds.
func (k *refKernel) run() float64 {
	t0 := time.Now()
	for range 4 {
		copy(k.work, k.src)
		slices.Sort(k.work)
		sum := sha256.Sum256(k.buf)
		k.buf[0] = sum[0]
	}
	x := uint32(0)
	for range 750_000 {
		x = k.ring[x]
	}
	k.sink += int(x) + k.work[0]
	return time.Since(t0).Seconds()
}
