package mobileip

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
)

// marshal renders any parsed message back to wire bytes.
func marshal(t *testing.T, m Message) []byte {
	switch m := m.(type) {
	case *RegistrationRequest:
		return m.Marshal()
	case *RegistrationReply:
		return m.Marshal()
	case *AgentAdvertisement:
		return m.Marshal()
	}
	t.Fatalf("ParseMessage returned unknown message %T", m)
	return nil
}

// seedMessages is one marshalled message of every type — the request in
// both its legacy and its authenticated form — with field values that
// exercise sign bits and the deregistration (zero care-of) case.
func seedMessages() [][]byte {
	home, ha, coa := addr.MustParse("172.16.0.10"), addr.MustParse("172.16.0.1"), addr.MustParse("10.0.0.1")
	authed := &RegistrationRequest{Home: home, HomeAg: ha, CareOf: coa, Lifetime: 30 * time.Second, ID: 7,
		HasAuth: true, Nonce: 1 << 63}
	for i := range authed.Token {
		authed.Token[i] = byte(i)
	}
	return [][]byte{
		(&RegistrationRequest{Home: home, HomeAg: ha, CareOf: coa, Lifetime: 30 * time.Second, ID: 1}).Marshal(),
		(&RegistrationRequest{Home: home, HomeAg: ha, Lifetime: -1, ID: 1<<64 - 1}).Marshal(),
		authed.Marshal(),
		(&RegistrationReply{Code: CodeAccepted, Home: home, HomeAg: ha, CareOf: coa, Lifetime: 30 * time.Second, ID: 7}).Marshal(),
		(&RegistrationReply{Code: CodeDeniedAuth, Home: home, HomeAg: ha, CareOf: coa, ID: 8}).Marshal(),
		(&AgentAdvertisement{Agent: coa, CareOf: coa, Seq: 0xFFFF, Lifetime: 3 * time.Second}).Marshal(),
	}
}

// FuzzParseMessage feeds arbitrary payloads to the decoder the HA, the
// FA, the MN and the multi-tier root anchor run on every Mobile IP
// control packet. It must never panic, must reject anything malformed
// with ErrBadMessage, and whatever it accepts must re-encode to the same
// bytes and parse back to the same message. Every field is canonical:
// unknown reply codes survive the round trip as themselves.
//
// Run it with: go test ./internal/mobileip -run '^$' -fuzz FuzzParseMessage
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
		if !bytes.Equal(wire, b) {
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
