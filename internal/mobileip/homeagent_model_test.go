package mobileip

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// mapHA is the reference Home Agent binding cache: bindings and
// expiry-sweep generations in Go maps, with the HA's acceptance rules and
// one soft-state expiry event per accepted registration.
type mapHA struct {
	prefix     addr.Prefix
	sched      *simtime.Scheduler
	bindings   map[addr.IP]*Binding
	generation map[addr.IP]uint64
}

// register applies req and reports whether the HA accepts it.
func (m *mapHA) register(req RegistrationRequest) bool {
	old := m.bindings[req.Home]
	if !m.prefix.Contains(req.Home) || (old != nil && req.ID < old.LastID) {
		return false
	}
	if req.CareOf.IsUnspecified() {
		delete(m.bindings, req.Home)
		return true
	}
	m.generation[req.Home]++
	gen := m.generation[req.Home]
	m.bindings[req.Home] = &Binding{Home: req.Home, CareOf: req.CareOf,
		Expires: m.sched.Now() + req.Lifetime, LastID: req.ID}
	m.sched.After(req.Lifetime, func() {
		if m.generation[req.Home] == gen {
			delete(m.bindings, req.Home)
		}
	})
	return true
}

func (m *mapHA) binding(home addr.IP) (Binding, bool) {
	b := m.bindings[home]
	if b == nil || b.Expires < m.sched.Now() {
		return Binding{}, false
	}
	return *b, true
}

// haBed is a Home Agent whose every outgoing packet — registration
// replies and tunnels alike — crosses a zero-delay link to a sink that
// records the last tunnel's outer destination.
type haBed struct {
	sched  *simtime.Scheduler
	ha     *HomeAgent
	stats  *Stats
	haAddr addr.IP
	tunnel addr.IP // outer destination of the last tunnel the sink got
	// arena backs the intercepted packets: the 0-alloc budget must not
	// depend on the global sync.Pool, which the race build drops items
	// from at random.
	arena *packet.Arena
}

func newHABed(t *testing.T) *haBed {
	t.Helper()
	b := &haBed{sched: simtime.NewScheduler(), haAddr: addr.MustParse("172.16.0.1"), arena: packet.NewArena()}
	net := netsim.New(b.sched, simtime.NewRand(1))
	haNode := net.NewNode("ha")
	haNode.AddAddr(b.haAddr)
	b.stats = NewStats(nil)
	b.ha = NewHomeAgent(haNode, addr.MustParsePrefix("172.16.0.0/16"), b.stats)
	sink := net.NewNode("sink")
	sink.SetHandler(netsim.HandlerFunc(func(pkt *packet.Packet, _ *netsim.Node, _ *netsim.Link) {
		if pkt.Proto == packet.ProtoIPinIP {
			b.tunnel = pkt.Dst
		}
		packet.Release(pkt)
	}))
	b.ha.Router().Default = net.Connect(haNode, sink, netsim.LinkConfig{})
	return b
}

// register hands req to the HA and delivers its reply.
func (b *haBed) register(req RegistrationRequest) {
	req.HomeAg = b.haAddr
	b.ha.Receive(packet.NewControl(addr.MustParse("10.1.0.1"), b.haAddr, packet.ProtoMobileIP, req.Marshal()), nil, nil)
	b.sched.RunUntil(b.sched.Now())
}

// cnAddr is the correspondent node the intercepted packets come from.
var cnAddr = addr.MustParse("192.0.2.10")

// intercept hands the HA a data packet for home and delivers whatever
// it sends on.
func (b *haBed) intercept(home addr.IP) {
	b.ha.Receive(packet.NewFrom(b.arena, cnAddr, home, packet.ClassStreaming, 1, 1, nil), nil, nil)
	b.sched.RunUntil(b.sched.Now())
}

// TestHomeAgentMatchesMapModel runs random register, deregister, expire
// and intercept sequences against the Go-map reference. Homes include
// offsets that grow the binding array several times (up to the last
// address of the prefix) and one outside the prefix.
func TestHomeAgentMatchesMapModel(t *testing.T) {
	base := addr.MustParse("172.16.0.0")
	homes := []addr.IP{base + 10, base + 11, base + 12, base + 63, base + 64, base + 1030, base + 0xFFFF,
		addr.MustParse("10.9.0.5")}
	careOfs := []addr.IP{addr.MustParse("10.1.0.1"), addr.MustParse("10.2.0.1"), addr.Unspecified}
	lifetimes := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	steps := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond}
	for seed := int64(1); seed <= 20; seed++ {
		r := simtime.NewRand(seed)
		b := newHABed(t)
		ref := &mapHA{prefix: b.ha.prefix, sched: b.sched,
			bindings: map[addr.IP]*Binding{}, generation: map[addr.IP]uint64{}}
		ids := map[addr.IP]uint64{}
		for op := 0; op < 1000; op++ {
			home := homes[r.Intn(len(homes))]
			switch k := r.Intn(10); {
			case k < 4:
				ids[home] += uint64(r.Intn(3))
				id := ids[home] - uint64(r.Intn(2)) // sometimes a retransmission of an older move
				req := RegistrationRequest{Home: home, CareOf: careOfs[r.Intn(len(careOfs))],
					Lifetime: lifetimes[r.Intn(len(lifetimes))], ID: id}
				denials := b.stats.Denials.Value()
				b.register(req)
				if accepted, want := b.stats.Denials.Value() == denials, ref.register(req); accepted != want {
					t.Fatalf("seed %d op %d: registration %+v accepted = %v, model %v", seed, op, req, accepted, want)
				}
			case k < 8:
				intercepts := b.stats.Intercepts.Value()
				b.tunnel = addr.Unspecified
				b.intercept(home)
				want, bound := ref.binding(home)
				if got := b.stats.Intercepts.Value() > intercepts; got != bound || b.tunnel != want.CareOf {
					t.Fatalf("seed %d op %d: intercept for %v tunnelled %v to %v, model bound %v care-of %v",
						seed, op, home, got, b.tunnel, bound, want.CareOf)
				}
			default:
				b.sched.RunUntil(b.sched.Now() + steps[r.Intn(len(steps))])
			}
			for _, h := range homes {
				got, gok := b.ha.Binding(h)
				want, wok := ref.binding(h)
				if got != want || gok != wok {
					t.Fatalf("seed %d op %d: Binding(%v) = %+v %v, model %+v %v", seed, op, h, got, gok, want, wok)
				}
			}
		}
	}
}

// The HA intercepts every downlink packet of the Mobile IP scheme: for a
// bound MN, the binding lookup and the tunnel must not allocate.
func TestHomeAgentInterceptAllocFree(t *testing.T) {
	b := newHABed(t)
	home := addr.MustParse("172.16.0.10")
	b.register(RegistrationRequest{Home: home, CareOf: addr.MustParse("10.1.0.1"), Lifetime: time.Hour, ID: 1})
	b.intercept(home)
	if b.tunnel != addr.MustParse("10.1.0.1") {
		t.Fatalf("tunnel went to %v, want the care-of address", b.tunnel)
	}
	if avg := testing.AllocsPerRun(1000, func() { b.intercept(home) }); avg != 0 {
		t.Fatalf("intercept allocates %.1f allocs/op, want 0", avg)
	}
}
