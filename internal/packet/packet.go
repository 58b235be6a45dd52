// Package packet models the IP datagrams that flow through the simulated
// network, including the IP-in-IP encapsulation Mobile IP uses to tunnel
// packets from a Home Agent to a care-of address.
//
// A Packet carries a 20-byte IPv4-like header plus an opaque payload.
// Control protocols (Mobile IP registration, Cellular IP route updates,
// multi-tier location messages) marshal their message structs into the
// payload with encoding/binary, so byte-overhead accounting in experiments
// reflects real header and message sizes rather than estimates.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/addr"
)

// HeaderSize is the wire size of the simulated IP header in bytes,
// matching a minimal IPv4 header.
const HeaderSize = 20

// MaxTTL is the initial hop limit for newly created packets.
const MaxTTL = 64

// Errors returned by Unmarshal and Decapsulate.
var (
	ErrTruncated     = errors.New("packet: truncated")
	ErrNotTunnel     = errors.New("packet: not an encapsulated packet")
	ErrTTLExceeded   = errors.New("packet: TTL exceeded")
	ErrNilPacket     = errors.New("packet: nil packet")
	ErrPayloadTooBig = errors.New("packet: payload exceeds 64 KiB")
)

// Protocol identifies what the payload contains. Values are local to the
// simulator and start at one per the style guide.
type Protocol uint8

// Protocol numbers used by the simulated stack.
const (
	ProtoData     Protocol = iota + 1 // application data (voice/video/bulk)
	ProtoIPinIP                       // Mobile IP tunnel: payload is an inner packet
	ProtoMobileIP                     // Mobile IP control: registration, advertisement
	ProtoCellular                     // Cellular IP control: route/paging updates
	ProtoTier                         // multi-tier control: location & handoff messages
	ProtoRSMC                         // RSMC control: auth, resource switching
)

// String implements fmt.Stringer for logs and traces.
func (p Protocol) String() string {
	switch p {
	case ProtoData:
		return "data"
	case ProtoIPinIP:
		return "ip-in-ip"
	case ProtoMobileIP:
		return "mobile-ip"
	case ProtoCellular:
		return "cellular-ip"
	case ProtoTier:
		return "multi-tier"
	case ProtoRSMC:
		return "rsmc"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Class is the QoS traffic class of a packet, after the UMTS service
// classes. Scheduling and admission decisions key off it.
type Class uint8

// QoS classes in decreasing delay sensitivity.
const (
	ClassConversational Class = iota + 1 // voice: strict delay
	ClassStreaming                       // video: bounded delay, loss tolerant-ish
	ClassInteractive                     // web-like request/response
	ClassBackground                      // bulk transfer
	ClassControl                         // protocol signalling: never dropped by QoS
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassConversational:
		return "conversational"
	case ClassStreaming:
		return "streaming"
	case ClassInteractive:
		return "interactive"
	case ClassBackground:
		return "background"
	case ClassControl:
		return "control"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Packet is one simulated datagram. SentAt is simulation metadata stamped
// by the traffic source for latency measurement; it is not wire data and
// does not survive Marshal/Unmarshal.
type Packet struct {
	Src, Dst addr.IP
	TTL      uint8
	Proto    Protocol
	Class    Class
	Flags    uint8
	FlowID   uint32
	Seq      uint32
	Payload  []byte

	// SentAt is the virtual time the original source emitted the packet.
	SentAt time.Duration
	// Inner is the encapsulated packet when Proto == ProtoIPinIP.
	Inner *Packet

	// sharedPayload marks the payload bytes as aliased by another packet
	// (a Clone) or by the static zero buffer; WritablePayload copies
	// before the first mutation.
	sharedPayload bool
	// released guards against use of a packet after Release returned it
	// to the pool.
	released bool
	// alloc is the Allocator that owns this packet's storage; nil means
	// the process-global pool. Release hands the packet back to it, and
	// Clone/Encapsulate draw derived packets from the same allocator so
	// a scenario's arena keeps its packets even through tunnels and
	// bicast duplication.
	alloc Allocator
}

// Allocator recycles Packet structs. The process-global sync.Pool is the
// default (safe for concurrent scenario workers); scale runs install a
// per-scenario Arena so very high worker counts never contend on one
// shared pool.
type Allocator interface {
	// Get returns a packet whose fields are unspecified; callers zero it.
	Get() *Packet
	// Put recycles a packet. The packet must not be touched afterwards.
	Put(*Packet)
}

// poolAllocator is the default process-global allocator. sync.Pool is
// already sharded per P, so independent scenario workers mostly hit
// private shards; because the constructors initialise every field,
// recycling cannot leak state between runs.
type poolAllocator struct{ pool sync.Pool }

func (a *poolAllocator) Get() *Packet {
	if p, ok := a.pool.Get().(*Packet); ok {
		return p
	}
	return new(Packet)
}

func (a *poolAllocator) Put(p *Packet) { a.pool.Put(p) }

// global is the default allocator behind the package-level constructors.
var global = &poolAllocator{}

// get returns a zeroed packet from the given allocator (nil = global).
func get(a Allocator) *Packet {
	if a == nil {
		p := global.Get()
		*p = Packet{}
		return p
	}
	p := a.Get()
	*p = Packet{alloc: a}
	return p
}

// Release returns a packet (and, recursively, its encapsulated Inner) to
// the free list. Ownership rules:
//
//   - The entity that removes a packet from the network releases it: the
//     netsim drop path releases every dropped packet, and terminal
//     receivers (mobile nodes/hosts, agents consuming control messages)
//     release after handling. Forwarders never release — they pass
//     ownership downstream with the packet.
//   - After Release the packet must not be touched; any code that needs
//     the packet past delivery must Clone it first. Payload slices may
//     outlive the packet (Release drops the reference without recycling
//     the bytes), so parsed messages and re-wrapped control payloads
//     remain valid.
//   - Releasing nil is a no-op. Releasing twice is a bug; Release panics
//     so the misuse is caught in tests rather than corrupting a run.
//
//mmlint:noalloc
func Release(p *Packet) {
	if p == nil {
		return
	}
	if p.released {
		panic("packet: double Release")
	}
	inner := p.Inner
	a := p.alloc
	*p = Packet{released: true, alloc: a}
	if a == nil {
		global.Put(p)
	} else {
		a.Put(p)
	}
	Release(inner)
}

// zeroes backs ZeroPayload. Simulated application payloads carry no
// information — only their length matters for wire accounting — so every
// generator can slice one static zero buffer instead of allocating per
// packet. The buffer is read-only by contract.
var zeroes [64 * 1024]byte

// ZeroPayload returns an all-zero payload of length n without allocating
// (for n up to 64 KiB). The returned slice is shared and must not be
// written; it is the standard payload for simulated application data.
func ZeroPayload(n int) []byte {
	if n <= len(zeroes) {
		return zeroes[:n:n]
	}
	return make([]byte, n)
}

// Flag bits.
const (
	// FlagBicast marks a semisoft-handoff duplicate delivered along the
	// new path while the old path is still live.
	FlagBicast uint8 = 1 << iota
	// FlagRetransmit marks a protocol retransmission.
	FlagRetransmit
	// FlagTraced marks a packet sampled into the observability trace:
	// its delivery or drop emits a lifecycle event. Clones inherit the
	// flag (whole-struct copy), so bicast duplicates of a sampled packet
	// stay visible; Release clears it with the rest of the header.
	FlagTraced
)

// New returns a data packet with a full TTL. The packet comes from the
// global free list; hand it back with Release when it leaves the network.
// Only tests call it: runs draw data packets through NewFrom.
//
//mmlint:noalloc
//mmlint:testref tests across the simulator build data packets without an arena
func New(src, dst addr.IP, class Class, flowID, seq uint32, payload []byte) *Packet {
	return NewFrom(nil, src, dst, class, flowID, seq, payload)
}

// NewFrom is New drawing from the given allocator (nil = the global
// pool). Traffic generators in arena-backed scale scenarios use it so
// every data packet cycles through the scenario's own arena.
//
//mmlint:noalloc
func NewFrom(a Allocator, src, dst addr.IP, class Class, flowID, seq uint32, payload []byte) *Packet {
	p := get(a)
	p.Src = src
	p.Dst = dst
	p.TTL = MaxTTL
	p.Proto = ProtoData
	p.Class = class
	p.FlowID = flowID
	p.Seq = seq
	p.Payload = payload
	p.sharedPayload = aliasesZeroes(payload)
	return p
}

// NewControl returns a control packet of the given protocol whose payload
// is a marshalled message. The packet comes from the global free list;
// hand it back with Release when it leaves the network.
func NewControl(src, dst addr.IP, proto Protocol, payload []byte) *Packet {
	p := get(nil)
	p.Src = src
	p.Dst = dst
	p.TTL = MaxTTL
	p.Proto = proto
	p.Class = ClassControl
	p.Payload = payload
	p.sharedPayload = aliasesZeroes(payload)
	return p
}

// aliasesZeroes reports whether payload is a ZeroPayload slice of the
// static zero buffer (which must never be written through a packet).
func aliasesZeroes(payload []byte) bool {
	return len(payload) > 0 && &payload[0] == &zeroes[0]
}

// Size returns the packet's wire size in bytes, including recursively
// encapsulated packets.
func (p *Packet) Size() int {
	if p == nil {
		return 0
	}
	if p.Proto == ProtoIPinIP && p.Inner != nil {
		return HeaderSize + p.Inner.Size()
	}
	return HeaderSize + len(p.Payload)
}

// Clone returns an independent copy for bicast/flood duplication: header
// fields are copied so the two packets age independently in queues, while
// the payload bytes are shared copy-on-write (both packets are marked
// shared; WritablePayload copies before mutating). Encapsulated inner
// packets are cloned recursively. The copy comes from the same allocator
// as the original.
//
//mmlint:noalloc
func (p *Packet) Clone() *Packet {
	if p == nil {
		return nil
	}
	q := get(p.alloc)
	*q = *p // alloc is carried along: p and q share the same allocator
	if p.Payload != nil {
		p.sharedPayload = true
		q.sharedPayload = true
	}
	q.Inner = p.Inner.Clone()
	return q
}

// DecrementTTL ages the packet by one hop, returning ErrTTLExceeded when
// the TTL hits zero. Routers call this before forwarding.
func (p *Packet) DecrementTTL() error {
	if p.TTL == 0 {
		return ErrTTLExceeded
	}
	p.TTL--
	if p.TTL == 0 {
		return ErrTTLExceeded
	}
	return nil
}

// String summarises the packet for traces.
func (p *Packet) String() string {
	if p == nil {
		return "<nil packet>"
	}
	if p.Proto == ProtoIPinIP && p.Inner != nil {
		return fmt.Sprintf("%s->%s %s[%s]", p.Src, p.Dst, p.Proto, p.Inner)
	}
	return fmt.Sprintf("%s->%s %s flow=%d seq=%d len=%d", p.Src, p.Dst, p.Proto, p.FlowID, p.Seq, p.Size())
}

// Encapsulate wraps inner in an IP-in-IP tunnel packet from src to dst,
// as a Home Agent does when forwarding to a care-of address. The inner
// packet is not copied; tunnel endpoints own the packet for its transit.
// The tunnel header comes from the inner packet's allocator, so tunnelled
// arena packets stay wholly within their scenario's arena.
func Encapsulate(src, dst addr.IP, inner *Packet) (*Packet, error) {
	if inner == nil {
		return nil, ErrNilPacket
	}
	p := get(inner.alloc)
	p.Src = src
	p.Dst = dst
	p.TTL = MaxTTL
	p.Proto = ProtoIPinIP
	p.Class = inner.Class // tunnel inherits the inner QoS class
	p.FlowID = inner.FlowID
	p.Seq = inner.Seq
	p.SentAt = inner.SentAt
	p.Inner = inner
	return p, nil
}

// Decapsulate unwraps a tunnel packet, as a Foreign Agent does before
// delivering to the mobile node.
func (p *Packet) Decapsulate() (*Packet, error) {
	if p == nil {
		return nil, ErrNilPacket
	}
	if p.Proto != ProtoIPinIP {
		return nil, fmt.Errorf("%w: proto %s", ErrNotTunnel, p.Proto)
	}
	if p.Inner != nil {
		return p.Inner, nil
	}
	inner, err := Unmarshal(p.Payload)
	if err != nil {
		return nil, fmt.Errorf("tunnel payload: %w", err)
	}
	return inner, nil
}

// Marshal renders the packet to wire bytes: 20-byte header + payload.
// Encapsulated inner packets are marshalled recursively into the payload.
// Runs never serialise packets; the wire round-trip tests, the
// FuzzUnmarshal seeds and BenchmarkPacketMarshalUnmarshal encode with it.
//
//mmlint:testref wire format: round-trip tests, fuzz seeds and the root benchmark encode with it
func (p *Packet) Marshal() ([]byte, error) {
	if p == nil {
		return nil, ErrNilPacket
	}
	payload := p.Payload
	if p.Proto == ProtoIPinIP && p.Inner != nil {
		b, err := p.Inner.Marshal()
		if err != nil {
			return nil, fmt.Errorf("inner: %w", err)
		}
		payload = b
	}
	if len(payload) > 0xFFFF {
		return nil, ErrPayloadTooBig
	}
	buf := make([]byte, HeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(p.Src))
	binary.BigEndian.PutUint32(buf[4:8], uint32(p.Dst))
	buf[8] = p.TTL
	buf[9] = uint8(p.Proto)
	buf[10] = uint8(p.Class)
	buf[11] = p.Flags
	binary.BigEndian.PutUint32(buf[12:16], p.FlowID)
	binary.BigEndian.PutUint32(buf[16:20], p.Seq)
	copy(buf[HeaderSize:], payload)
	return buf, nil
}

// Unmarshal parses wire bytes produced by Marshal. For tunnel packets the
// inner packet is reconstructed into Inner.
func Unmarshal(b []byte) (*Packet, error) {
	if len(b) < HeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	p := get(nil)
	p.Src = addr.IP(binary.BigEndian.Uint32(b[0:4]))
	p.Dst = addr.IP(binary.BigEndian.Uint32(b[4:8]))
	p.TTL = b[8]
	p.Proto = Protocol(b[9])
	p.Class = Class(b[10])
	p.Flags = b[11]
	p.FlowID = binary.BigEndian.Uint32(b[12:16])
	p.Seq = binary.BigEndian.Uint32(b[16:20])
	rest := b[HeaderSize:]
	if p.Proto == ProtoIPinIP {
		inner, err := Unmarshal(rest)
		if err != nil {
			Release(p)
			return nil, fmt.Errorf("inner: %w", err)
		}
		p.Inner = inner
		return p, nil
	}
	if len(rest) > 0 {
		p.Payload = make([]byte, len(rest))
		copy(p.Payload, rest)
	}
	return p, nil
}
