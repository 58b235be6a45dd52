package packet

import (
	"bytes"
	"errors"
	"testing"
)

// samePacket compares wire-visible fields down the tunnel chain.
func samePacket(a, b *Packet) bool {
	for ; a != nil && b != nil; a, b = a.Inner, b.Inner {
		if a.Src != b.Src || a.Dst != b.Dst || a.TTL != b.TTL || a.Proto != b.Proto ||
			a.Class != b.Class || a.Flags != b.Flags || a.FlowID != b.FlowID || a.Seq != b.Seq ||
			!bytes.Equal(a.Payload, b.Payload) {
			return false
		}
	}
	return a == nil && b == nil
}

// seedWires is one data packet, one empty control packet and a single
// and a double tunnel, marshalled.
func seedWires() [][]byte {
	data := New(srcIP, dstIP, ClassConversational, 9, 0xFFFFFFFF, []byte("voice-frame"))
	data.Flags = FlagBicast | FlagRetransmit
	tun, _ := Encapsulate(tunIP, dstIP, New(srcIP, dstIP, ClassStreaming, 5, 77, []byte{0, 1, 2}))
	tun2, _ := Encapsulate(dstIP, srcIP, tun)
	var wires [][]byte
	for _, p := range []*Packet{data, NewControl(srcIP, tunIP, ProtoMobileIP, nil), tun, tun2} {
		b, _ := p.Marshal()
		wires = append(wires, b)
	}
	return wires
}

// FuzzUnmarshal feeds arbitrary wire bytes to the decoder that rebuilds
// a tunnel's inner packet when only its bytes are known. It must never
// panic, must reject with ErrTruncated any input too short to hold every
// header of its tunnel chain, and whatever it accepts must marshal back
// to the same bytes and unmarshal again to the same packet.
//
// Run it with: go test ./internal/packet -run '^$' -fuzz FuzzUnmarshal
func FuzzUnmarshal(f *testing.F) {
	for _, b := range seedWires() {
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("Unmarshal(%x) error %v is not ErrTruncated", b, err)
			}
			return
		}
		defer Release(p)
		wire, err := p.Marshal()
		if errors.Is(err, ErrPayloadTooBig) && len(b)-HeaderSize > 0xFFFF {
			return
		}
		if err != nil || !bytes.Equal(wire, b) {
			t.Fatalf("Marshal(Unmarshal(%x)) = %x, %v", b, wire, err)
		}
		again, err := Unmarshal(wire)
		if err != nil || !samePacket(p, again) {
			t.Fatalf("Unmarshal(Marshal(%v)) = %v, %v", p, again, err)
		}
		Release(again)
		headers := 0
		for q := p; q != nil; q = q.Inner {
			headers += HeaderSize
		}
		for k := 0; k < headers; k++ {
			if _, err := Unmarshal(b[:k]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("Unmarshal of %d of %d header bytes: error %v, want ErrTruncated", k, headers, err)
			}
		}
	})
}
