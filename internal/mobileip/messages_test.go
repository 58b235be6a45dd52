package mobileip

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
)

func TestRegistrationRequestRoundTrip(t *testing.T) {
	req := &RegistrationRequest{
		Home:     addr.MustParse("172.16.0.5"),
		HomeAg:   addr.MustParse("172.16.0.1"),
		CareOf:   addr.MustParse("10.0.3.1"),
		Lifetime: 90 * time.Second,
		ID:       0xDEADBEEF01,
	}
	msg, err := ParseMessage(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*RegistrationRequest)
	if !ok {
		t.Fatalf("parsed %T", msg)
	}
	if *got != *req {
		t.Fatalf("round trip: %+v vs %+v", got, req)
	}
}

func TestRegistrationReplyRoundTrip(t *testing.T) {
	rep := &RegistrationReply{
		Code:     CodeAccepted,
		Home:     addr.MustParse("172.16.0.5"),
		HomeAg:   addr.MustParse("172.16.0.1"),
		CareOf:   addr.MustParse("10.0.3.1"),
		Lifetime: time.Minute,
		ID:       42,
	}
	msg, err := ParseMessage(rep.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*RegistrationReply)
	if !ok {
		t.Fatalf("parsed %T", msg)
	}
	if *got != *rep {
		t.Fatalf("round trip mismatch")
	}
}

func TestAgentAdvertisementRoundTrip(t *testing.T) {
	adv := &AgentAdvertisement{
		Agent:    addr.MustParse("10.0.3.1"),
		CareOf:   addr.MustParse("10.0.3.1"),
		Seq:      999,
		Lifetime: 30 * time.Second,
	}
	msg, err := ParseMessage(adv.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*AgentAdvertisement)
	if !ok {
		t.Fatalf("parsed %T", msg)
	}
	if *got != *adv {
		t.Fatalf("round trip mismatch")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},                          // unknown type
		{msgRegistrationRequest, 1},   // truncated
		{msgRegistrationReply, 1, 2},  // truncated
		{msgAgentAdvertisement, 1, 2}, // truncated
		append((&RegistrationRequest{}).Marshal(), 0), // oversized
	}
	for i, b := range cases {
		if _, err := ParseMessage(b); !errors.Is(err, ErrBadMessage) {
			t.Errorf("case %d: err = %v, want ErrBadMessage", i, err)
		}
	}
}

func TestReplyCodeStrings(t *testing.T) {
	for _, c := range []ReplyCode{CodeAccepted, CodeDeniedUnknownHome, CodeDeniedAuth, CodeDeniedIdentification, ReplyCode(77)} {
		if c.String() == "" {
			t.Fatal("empty code string")
		}
	}
}

// Property: request marshal/parse is the identity.
func TestRequestRoundTripProperty(t *testing.T) {
	prop := func(home, ha, coa uint32, life int64, id uint64) bool {
		if life < 0 {
			life = -life
		}
		req := &RegistrationRequest{
			Home: addr.IP(home), HomeAg: addr.IP(ha), CareOf: addr.IP(coa),
			Lifetime: time.Duration(life), ID: id,
		}
		msg, err := ParseMessage(req.Marshal())
		if err != nil {
			return false
		}
		got, ok := msg.(*RegistrationRequest)
		return ok && *got == *req
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
