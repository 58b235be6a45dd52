package multitier

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/topology"
)

// marshal renders any parsed message back to wire bytes.
func marshal(t *testing.T, m Message) []byte {
	switch m := m.(type) {
	case *LocationMessage:
		return m.Marshal()
	case *UpdateLocation:
		return m.Marshal()
	case *DeleteLocation:
		return m.Marshal()
	case *HandoffRequest:
		return m.Marshal()
	case *HandoffReply:
		return m.Marshal()
	}
	t.Fatalf("decode returned unknown message %T", m)
	return nil
}

// seedMessages is one marshalled message of every type, with field
// values that exercise sign bits, NoCell and float encodings.
func seedMessages() [][]byte {
	mn := addr.MustParse("10.1.2.3")
	req := &HandoffRequest{MN: mn, From: topology.NoCell, To: 7, BPS: 64000, SpeedMPS: 13.5, Seq: 9, Nonce: 1 << 63}
	for i := range req.Token {
		req.Token[i] = byte(i)
	}
	return [][]byte{
		(&LocationMessage{MN: mn, Serving: 3, Seq: 1}).Marshal(),
		(&UpdateLocation{MN: mn, NewCell: 4, OldCell: topology.NoCell, Seq: 0xFFFFFFFF}).Marshal(),
		(&DeleteLocation{MN: mn, Cell: 4, NewCell: topology.NoCell, Seq: 2}).Marshal(),
		req.Marshal(),
		(&HandoffReply{MN: mn, To: 7, Accepted: true, Seq: 9}).Marshal(),
		(&HandoffReply{MN: mn, To: 7, Seq: 10}).Marshal(),
	}
}

// FuzzParseMessage feeds arbitrary payloads to the decoder the station
// and the mobile run on every control packet. It must never panic, must
// reject anything malformed with ErrBadMessage, and whatever it accepts
// must re-encode to the same bytes and parse back to the same message.
// The one non-canonical field is the reply's accept byte, where any
// value but 1 reads as a rejection and re-encodes as 0.
//
// Run it with: go test ./internal/multitier -run '^$' -fuzz FuzzParseMessage
func FuzzParseMessage(f *testing.F) {
	for _, b := range seedMessages() {
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := new(msgScratch).decode(b)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("error %v is not ErrBadMessage", err)
			}
			return
		}
		wire := marshal(t, m)
		want := b
		if _, ok := m.(*HandoffReply); ok && b[9] != 1 {
			want = bytes.Clone(b)
			want[9] = 0
		}
		if !bytes.Equal(wire, want) {
			t.Fatalf("Marshal(Parse(%x)) = %x", b, wire)
		}
		again, err := new(msgScratch).decode(wire)
		if err != nil {
			t.Fatalf("re-parse of %x: %v", wire, err)
		}
		if w := marshal(t, again); !bytes.Equal(w, wire) {
			t.Fatalf("Parse(Marshal(m)) drifted: %x -> %x", wire, w)
		}
		if len(wire) > 1 {
			if _, err := new(msgScratch).decode(wire[:len(wire)-1]); err == nil {
				t.Fatalf("truncated %x parsed without error", wire[:len(wire)-1])
			}
		}
	})
}
