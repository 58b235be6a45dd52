package dofix

import "math/rand/v2"

// v2Bans draws from every math/rand/v2 global the v1 list does not
// already name.
func v2Bans(n int) uint64 {
	a := rand.IntN(n)     // want "global math/rand/v2.IntN draw"
	b := rand.Int32()     // want "global math/rand/v2.Int32 draw"
	c := rand.Int32N(4)   // want "global math/rand/v2.Int32N draw"
	d := rand.Int64()     // want "global math/rand/v2.Int64 draw"
	e := rand.Int64N(4)   // want "global math/rand/v2.Int64N draw"
	f := rand.Uint()      // want "global math/rand/v2.Uint draw"
	g := rand.UintN(4)    // want "global math/rand/v2.UintN draw"
	h := rand.Uint32N(4)  // want "global math/rand/v2.Uint32N draw"
	i := rand.Uint64N(4)  // want "global math/rand/v2.Uint64N draw"
	j := rand.N[int64](4) // want "global math/rand/v2.N draw"
	return uint64(a+int(b)+int(c)) + uint64(d+e) + uint64(f+g) + uint64(h) + i + uint64(j)
}

// v2SeededClean draws only from a locally seeded source: methods on a
// *rand.Rand and the source constructors are allowed.
func v2SeededClean(n int) int {
	r := rand.New(rand.NewPCG(1, 2))
	return r.IntN(n) + int(r.Int64N(4)) + int(r.Uint64N(4))
}
