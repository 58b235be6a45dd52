package cellularip

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/addr"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// mapCache is the reference soft cache: the same rules over a Go map of
// mapping slices — Replace leaves one mapping, Add appends a new hop or
// refreshes a present one after dropping expired mappings in order, and
// Lookup drops expired mappings and erases a host with none left.
type mapCache struct {
	timeout time.Duration
	sched   *simtime.Scheduler
	entries map[addr.IP][]Mapping
}

func (c *mapCache) Replace(host addr.IP, m Mapping) {
	m.Expires = c.sched.Now() + c.timeout
	c.entries[host] = append(c.entries[host][:0], m)
}

func (c *mapCache) Add(host addr.IP, m Mapping) {
	m.Expires = c.sched.Now() + c.timeout
	live := c.liveMappings(host)
	for i := range live {
		if live[i].sameHop(m) {
			live[i].Expires = m.Expires
			c.entries[host] = live
			return
		}
	}
	c.entries[host] = append(live, m)
}

func (c *mapCache) Lookup(host addr.IP) []Mapping {
	live := c.liveMappings(host)
	if len(live) == 0 {
		delete(c.entries, host)
		return nil
	}
	c.entries[host] = live
	return live
}

func (c *mapCache) liveMappings(host addr.IP) []Mapping {
	now := c.sched.Now()
	all := c.entries[host]
	live := all[:0]
	for _, m := range all {
		if m.Expires > now {
			live = append(live, m)
		}
	}
	return live
}

func (c *mapCache) Clear() { clear(c.entries) }

func (c *mapCache) Len() int {
	n := 0
	for _, maps := range c.entries {
		for _, m := range maps {
			if m.Expires > c.sched.Now() {
				n++
				break
			}
		}
	}
	return n
}

// checkCacheShape verifies the open-addressing invariants: the host count
// matches the occupied slots, the array stays under 3/4 full, every host
// is found from its home slot by a probe that crosses no empty slot, and
// spill holds exactly the spilled hosts.
func checkCacheShape(t *testing.T, c *SoftCache) {
	t.Helper()
	used, spilled := 0, 0
	for i, s := range c.slots {
		if s.host == addr.Unspecified {
			if s.n != 0 || s.spilled {
				t.Fatalf("empty slot %d holds %d mappings (spilled %v)", i, s.n, s.spilled)
			}
			continue
		}
		used++
		if got := c.find(s.host); got != i {
			t.Fatalf("host %v sits in slot %d but its probe finds %d", s.host, i, got)
		}
		if s.spilled {
			spilled++
			if _, ok := c.spill[s.host]; !ok || s.n != 0 {
				t.Fatalf("spilled host %v: %d inline mappings, in spill %v", s.host, s.n, ok)
			}
		}
	}
	if used != c.used {
		t.Fatalf("used = %d, %d slots occupied", c.used, used)
	}
	if spilled != len(c.spill) {
		t.Fatalf("%d spilled hosts, spill holds %d", spilled, len(c.spill))
	}
	if 4*c.used > 3*len(c.slots) {
		t.Fatalf("%d hosts in %d slots: over 3/4 load", c.used, len(c.slots))
	}
}

// checkSameHosts verifies that the cache holds a slot for exactly the
// hosts the model holds an entry for, expired or not, with the same
// mappings: lazy expiry keeps what the model keeps and Lookup erases
// what the model erases.
func checkSameHosts(t *testing.T, c *SoftCache, ref *mapCache) {
	t.Helper()
	if c.used != len(ref.entries) {
		t.Fatalf("cache holds %d hosts, model %d", c.used, len(ref.entries))
	}
	for host, want := range ref.entries {
		i := c.find(host)
		if i < 0 {
			t.Fatalf("host %v missing from the cache", host)
		}
		if got := c.mappings(&c.slots[i]); !slices.Equal(got, want) {
			t.Fatalf("host %v: cache holds %+v, model %+v", host, got, want)
		}
	}
}

// TestSoftCacheMatchesMapModel runs random Replace/Add/Lookup/Clear
// sequences against the Go-map reference. The host pool mixes dense
// addresses with addresses equal modulo every table length up to 256, so
// probe chains form, cross the array end and lose members in the middle;
// Add draws from four hops, so semisoft mappings pile up past the one a
// slot holds and their order matters; time steps include exactly one
// timeout, so mappings expire at now.
func TestSoftCacheMatchesMapModel(t *testing.T) {
	base := addr.MustParse("10.0.0.0")
	var pool []addr.IP
	for i := uint32(0); i < 12; i++ {
		pool = append(pool, base+addr.IP(10+i))
	}
	for i := uint32(1); i <= 12; i++ {
		pool = append(pool, base+addr.IP(7+256*i)) // all collide at home 7
	}
	pool = append(pool, base+255, base+511) // wrap the array end
	const timeout = 10 * time.Millisecond
	steps := []time.Duration{0, time.Millisecond, 3 * time.Millisecond, timeout}
	for seed := int64(1); seed <= 40; seed++ {
		r := simtime.NewRand(seed)
		sched := simtime.NewScheduler()
		net := netsim.New(sched, simtime.NewRand(1))
		hops := []Mapping{{Air: true}, {Via: net.NewNode("a")}, {Via: net.NewNode("b")}, {Via: net.NewNode("c")}}
		c := NewSoftCache(timeout, sched)
		ref := &mapCache{timeout: timeout, sched: sched, entries: map[addr.IP][]Mapping{}}
		for op := 0; op < 2000; op++ {
			host := pool[r.Intn(len(pool))]
			hop := hops[r.Intn(len(hops))]
			switch k := r.Intn(20); {
			case k < 5:
				c.Replace(host, hop)
				ref.Replace(host, hop)
			case k < 11:
				c.Add(host, hop)
				ref.Add(host, hop)
			case k < 17:
				got, want := c.Lookup(host), ref.Lookup(host)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Lookup(%v) = %+v, model %+v", seed, op, host, got, want)
				}
			case k < 18:
				c.Clear()
				ref.Clear()
			default:
				sched.RunUntil(sched.Now() + steps[r.Intn(len(steps))])
			}
			checkCacheShape(t, c)
			checkSameHosts(t, c, ref)
			if c.Len() != ref.Len() {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, c.Len(), ref.Len())
			}
		}
	}
}

// The unspecified address marks empty slots, so it is never cached.
func TestSoftCacheIgnoresUnspecifiedHost(t *testing.T) {
	sched := simtime.NewScheduler()
	c := NewSoftCache(time.Second, sched)
	c.Replace(addr.Unspecified, Mapping{Air: true})
	c.Add(addr.Unspecified, Mapping{Air: true})
	if got := c.Lookup(addr.Unspecified); got != nil || c.used != 0 {
		t.Fatalf("unspecified host cached: %+v, %d slots used", got, c.used)
	}
}

// A warm cache — one that has held this many hosts, and spilled a host,
// before — allocates nothing to refresh a host, look it up, bicast and
// collapse it, or let it expire and take it back: a moving population's
// hosts leave and re-enter every station's caches.
func TestSoftCacheReplaceLookupAllocFree(t *testing.T) {
	sched := simtime.NewScheduler()
	c := NewSoftCache(time.Second, sched)
	net := netsim.New(sched, simtime.NewRand(1))
	n1 := net.NewNode("n1")
	base := addr.MustParse("10.0.0.10")
	for i := 0; i < 100; i++ {
		c.Replace(base+addr.IP(i), Mapping{Via: n1})
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		host := base + addr.IP(i%100)
		i++
		c.Replace(host, Mapping{Air: true})
		if got := c.Lookup(host); len(got) != 1 {
			t.Fatalf("Lookup(%v) = %+v", host, got)
		}
	}); avg != 0 {
		t.Fatalf("warm Replace+Lookup allocates %.1f allocs/op, want 0", avg)
	}
	n2 := net.NewNode("n2")
	if avg := testing.AllocsPerRun(1000, func() {
		host := base + addr.IP(i%100)
		i++
		c.Add(host, Mapping{Via: n2}) // a semisoft bicast spills the host
		if got := c.Lookup(host); len(got) != 2 {
			t.Fatalf("Lookup(%v) after Add = %+v", host, got)
		}
		c.Replace(host, Mapping{Air: true})
	}); avg != 0 {
		t.Fatalf("warm semisoft Add+Lookup+Replace allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		sched.RunUntil(sched.Now() + time.Second) // every host expires
		for k := 0; k < 100; k++ {
			if c.Lookup(base+addr.IP(k)) != nil {
				t.Fatal("expired host still cached")
			}
		}
		for k := 0; k < 100; k++ {
			c.Replace(base+addr.IP(k), Mapping{Via: n1})
		}
	}); avg != 0 {
		t.Fatalf("expire-and-return allocates %.1f allocs/op, want 0", avg)
	}
}

// A slot stays at 32 bytes: the host, its flags and one mapping.
func TestCacheSlotIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(cacheSlot{}); n != 32 {
		t.Fatalf("cacheSlot is %d bytes, want 32", n)
	}
}
