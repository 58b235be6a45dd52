package packet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
)

var (
	srcIP = addr.MustParse("10.0.0.1")
	dstIP = addr.MustParse("10.1.0.2")
	tunIP = addr.MustParse("10.2.0.3")
)

func TestNewDefaults(t *testing.T) {
	p := New(srcIP, dstIP, ClassStreaming, 7, 42, []byte("payload"))
	if p.TTL != MaxTTL {
		t.Fatalf("TTL = %d", p.TTL)
	}
	if p.Proto != ProtoData {
		t.Fatalf("Proto = %v", p.Proto)
	}
	if p.Size() != HeaderSize+7 {
		t.Fatalf("Size = %d", p.Size())
	}
}

func TestEncapsulateDecapsulate(t *testing.T) {
	inner := New(srcIP, dstIP, ClassStreaming, 3, 50, []byte("video"))
	inner.SentAt = 123 * time.Millisecond
	tun, err := Encapsulate(tunIP, dstIP, inner)
	if err != nil {
		t.Fatal(err)
	}
	if tun.Proto != ProtoIPinIP {
		t.Fatalf("tunnel proto = %v", tun.Proto)
	}
	if tun.Class != inner.Class {
		t.Fatal("tunnel must inherit inner QoS class")
	}
	if tun.SentAt != inner.SentAt {
		t.Fatal("tunnel must carry inner timestamp for latency accounting")
	}
	if tun.Size() != HeaderSize+inner.Size() {
		t.Fatalf("tunnel Size = %d, want %d", tun.Size(), HeaderSize+inner.Size())
	}
	out, err := tun.Decapsulate()
	if err != nil {
		t.Fatal(err)
	}
	if out != inner {
		t.Fatal("in-memory decapsulation should return the original inner packet")
	}
}

func TestEncapsulateNil(t *testing.T) {
	if _, err := Encapsulate(tunIP, dstIP, nil); !errors.Is(err, ErrNilPacket) {
		t.Fatalf("err = %v, want ErrNilPacket", err)
	}
}

func TestDecapsulateNonTunnel(t *testing.T) {
	p := New(srcIP, dstIP, ClassBackground, 0, 0, nil)
	if _, err := p.Decapsulate(); !errors.Is(err, ErrNotTunnel) {
		t.Fatalf("err = %v, want ErrNotTunnel", err)
	}
	// A tunnel header with no inner packet carries nothing to unwrap:
	// only Encapsulate makes tunnels, and it always sets Inner.
	p.Proto = ProtoIPinIP
	if _, err := p.Decapsulate(); !errors.Is(err, ErrNotTunnel) {
		t.Fatalf("empty tunnel: err = %v, want ErrNotTunnel", err)
	}
}

func TestClone(t *testing.T) {
	inner := New(srcIP, dstIP, ClassStreaming, 1, 2, []byte("abc"))
	tun, _ := Encapsulate(tunIP, dstIP, inner)
	cp := tun.Clone()
	// Payload bytes are shared copy-on-write: mutation must go through
	// WritablePayload, which detaches the clone's bytes first.
	cp.Inner.WritablePayload()[0] = 'z'
	if inner.Payload[0] != 'a' {
		t.Fatal("WritablePayload mutation leaked into the original")
	}
	if cp.Inner.Payload[0] != 'z' {
		t.Fatal("WritablePayload mutation lost")
	}
	cp.Inner.Seq = 99
	if inner.Seq != 2 {
		t.Fatal("Clone shares inner packet with original")
	}
	var nilPkt *Packet
	if nilPkt.Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestWritablePayloadDetachesOriginalToo(t *testing.T) {
	p := New(srcIP, dstIP, ClassStreaming, 1, 2, []byte("abc"))
	c := p.Clone()
	p.WritablePayload()[0] = 'x'
	if c.Payload[0] != 'a' {
		t.Fatal("original's mutation leaked into the clone")
	}
}

func TestZeroPayloadIsSharedAndCOW(t *testing.T) {
	a := ZeroPayload(64)
	b := ZeroPayload(128)
	if len(a) != 64 || len(b) != 128 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("ZeroPayload should share one static buffer")
	}
	p := New(srcIP, dstIP, ClassBackground, 1, 1, ZeroPayload(32))
	w := p.WritablePayload()
	w[0] = 7
	if b[0] != 0 {
		t.Fatal("WritablePayload mutated the shared zero buffer")
	}
}

func TestReleaseRecycles(t *testing.T) {
	p := New(srcIP, dstIP, ClassStreaming, 1, 2, []byte("abc"))
	inner := New(srcIP, dstIP, ClassStreaming, 1, 3, []byte("def"))
	tun, _ := Encapsulate(tunIP, dstIP, inner)
	Release(p)
	Release(tun) // releases inner recursively
	Release(nil) // no-op
	// Fresh packets must come out fully initialised regardless of what
	// the recycled slots previously held.
	q := New(srcIP, dstIP, ClassConversational, 9, 9, nil)
	if q.TTL != MaxTTL || q.Inner != nil || q.Payload != nil || q.Flags != 0 {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
}

func TestDecrementTTL(t *testing.T) {
	p := New(srcIP, dstIP, ClassBackground, 0, 0, nil)
	for i := 0; i < MaxTTL-1; i++ {
		if err := p.DecrementTTL(); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
	}
	if err := p.DecrementTTL(); !errors.Is(err, ErrTTLExceeded) {
		t.Fatalf("err = %v, want ErrTTLExceeded", err)
	}
	if err := p.DecrementTTL(); !errors.Is(err, ErrTTLExceeded) {
		t.Fatal("TTL 0 should keep failing")
	}
}

func TestProtocolClassStrings(t *testing.T) {
	for _, p := range []Protocol{ProtoData, ProtoIPinIP, ProtoMobileIP, ProtoCellular, ProtoTier, ProtoRSMC, Protocol(99)} {
		if p.String() == "" {
			t.Fatalf("empty String for %d", uint8(p))
		}
	}
	for _, c := range []Class{ClassConversational, ClassStreaming, ClassInteractive, ClassBackground, ClassControl, Class(99)} {
		if c.String() == "" {
			t.Fatalf("empty String for class %d", uint8(c))
		}
	}
	if New(srcIP, dstIP, ClassStreaming, 0, 0, nil).String() == "" {
		t.Fatal("packet String empty")
	}
	var nilPkt *Packet
	if nilPkt.String() == "" {
		t.Fatal("nil packet String empty")
	}
}
