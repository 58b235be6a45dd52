package cellularip

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/addr"
)

// marshal renders any parsed message back to wire bytes.
func marshal(t *testing.T, m Message) []byte {
	switch m := m.(type) {
	case *RouteUpdate:
		return m.Marshal()
	case *PagingUpdate:
		return m.Marshal()
	}
	t.Fatalf("ParseMessage returned unknown message %T", m)
	return nil
}

// seedMessages is one marshalled message of every type, the route
// update in both its hard and its semisoft form.
func seedMessages() [][]byte {
	host := addr.MustParse("10.1.2.3")
	return [][]byte{
		(&RouteUpdate{Host: host, Seq: 1}).Marshal(),
		(&RouteUpdate{Host: host, Seq: 0xFFFFFFFF, Semisoft: true}).Marshal(),
		(&PagingUpdate{Host: host, Seq: 2}).Marshal(),
	}
}

// FuzzParseMessage feeds arbitrary payloads to the decoder every base
// station runs on uplink control packets. It must never panic, must
// reject anything malformed with ErrBadMessage, and whatever it accepts
// must re-encode to the same bytes and parse back to the same message.
// The one non-canonical field is the route update's semisoft byte, where
// any value but 1 reads as a hard update and re-encodes as 0.
//
// Run it with: go test ./internal/cellularip -run '^$' -fuzz FuzzParseMessage
func FuzzParseMessage(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := ParseMessage(b)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("error %v is not ErrBadMessage", err)
			}
			return
		}
		wire := marshal(t, m)
		want := b
		if _, ok := m.(*RouteUpdate); ok && b[9] != 1 {
			want = bytes.Clone(b)
			want[9] = 0
		}
		if !bytes.Equal(wire, want) {
			t.Fatalf("Marshal(Parse(%x)) = %x", b, wire)
		}
		again, err := ParseMessage(wire)
		if err != nil {
			t.Fatalf("re-parse of %x: %v", wire, err)
		}
		if w := marshal(t, again); !bytes.Equal(w, wire) {
			t.Fatalf("Parse(Marshal(m)) drifted: %x -> %x", wire, w)
		}
		if _, err := ParseMessage(wire[:len(wire)-1]); err == nil {
			t.Fatalf("truncated %x parsed without error", wire[:len(wire)-1])
		}
	})
}
