// Package mobileip implements the Mobile IP substrate of the paper
// (§2.2.1, Fig 2.2): Home Agents that intercept packets for mobile nodes
// and tunnel them IP-in-IP to a care-of address, Foreign Agents that
// de-tunnel and deliver over the air, and Mobile Nodes that register their
// movements with their Home Agent through the serving Foreign Agent.
//
// It serves double duty as the macro-tier mobility protocol of the
// multi-tier architecture and as the baseline scheme the experiments
// compare against.
package mobileip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/auth"
)

// Message type tags on the wire.
const (
	msgRegistrationRequest uint8 = iota + 1
	msgRegistrationReply
	msgAgentAdvertisement
)

// Reply codes, after RFC 3344 §3.4 (simplified).
type ReplyCode uint8

// Registration outcomes.
const (
	CodeAccepted ReplyCode = iota + 1
	CodeDeniedUnknownHome
	CodeDeniedAuth
	// CodeDeniedIdentification answers a request older than the binding
	// it would replace (RFC 5944 §3.4 code 133, "registration
	// Identification mismatch").
	CodeDeniedIdentification
)

// String implements fmt.Stringer.
func (c ReplyCode) String() string {
	switch c {
	case CodeAccepted:
		return "accepted"
	case CodeDeniedUnknownHome:
		return "denied-unknown-home"
	case CodeDeniedAuth:
		return "denied-auth"
	case CodeDeniedIdentification:
		return "denied-identification"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// Errors returned by message parsing.
var (
	ErrBadMessage = errors.New("mobileip: malformed message")
)

// RegistrationRequest asks a Home Agent to bind the mobile node's home
// address to a care-of address for Lifetime. A zero care-of address is a
// deregistration (the node returned home).
type RegistrationRequest struct {
	Home     addr.IP
	HomeAg   addr.IP
	CareOf   addr.IP
	Lifetime time.Duration
	ID       uint64 // matches request to reply; also replay ordering
	// HasAuth appends the MHAE-style authentication extension: a nonce
	// (virtual-clock timestamp, replay ordering) plus an HMAC token over
	// (home, nonce). Legacy 29-byte requests parse with HasAuth false.
	HasAuth bool
	Nonce   uint64
	Token   [auth.TokenSize]byte
}

const (
	regRequestSize     = 1 + 4 + 4 + 4 + 8 + 8
	regRequestAuthSize = regRequestSize + 8 + auth.TokenSize
)

// Marshal renders the request to wire bytes (the authenticated form
// carries 40 extra bytes — the per-message cost of MHAE).
func (r *RegistrationRequest) Marshal() []byte {
	size := regRequestSize
	if r.HasAuth {
		size = regRequestAuthSize
	}
	b := make([]byte, size)
	b[0] = msgRegistrationRequest
	binary.BigEndian.PutUint32(b[1:5], uint32(r.Home))
	binary.BigEndian.PutUint32(b[5:9], uint32(r.HomeAg))
	binary.BigEndian.PutUint32(b[9:13], uint32(r.CareOf))
	binary.BigEndian.PutUint64(b[13:21], uint64(r.Lifetime))
	binary.BigEndian.PutUint64(b[21:29], r.ID)
	if r.HasAuth {
		binary.BigEndian.PutUint64(b[29:37], r.Nonce)
		copy(b[37:], r.Token[:])
	}
	return b
}

// RegistrationReply is the Home Agent's verdict.
type RegistrationReply struct {
	Code     ReplyCode
	Home     addr.IP
	HomeAg   addr.IP
	CareOf   addr.IP
	Lifetime time.Duration // possibly reduced by the HA
	ID       uint64
}

const regReplySize = 1 + 1 + 4 + 4 + 4 + 8 + 8

// Marshal renders the reply to wire bytes.
func (r *RegistrationReply) Marshal() []byte {
	b := make([]byte, regReplySize)
	b[0] = msgRegistrationReply
	b[1] = uint8(r.Code)
	binary.BigEndian.PutUint32(b[2:6], uint32(r.Home))
	binary.BigEndian.PutUint32(b[6:10], uint32(r.HomeAg))
	binary.BigEndian.PutUint32(b[10:14], uint32(r.CareOf))
	binary.BigEndian.PutUint64(b[14:22], uint64(r.Lifetime))
	binary.BigEndian.PutUint64(b[22:30], r.ID)
	return b
}

// AgentAdvertisement is the Foreign Agent's periodic beacon (Fig 2.2
// step 1a): it announces the agent's address and the care-of address it
// offers.
type AgentAdvertisement struct {
	Agent    addr.IP
	CareOf   addr.IP
	Seq      uint16
	Lifetime time.Duration
}

const agentAdvSize = 1 + 4 + 4 + 2 + 8

// Marshal renders the advertisement to wire bytes. No run path beacons
// advertisements; the message and fuzz tests encode them so the
// advertisement branch of ParseMessage, which runs on every control
// packet, stays covered.
//
//mmlint:testref wire format: FuzzParseMessage and the round-trip test encode advertisements
func (a *AgentAdvertisement) Marshal() []byte {
	b := make([]byte, agentAdvSize)
	b[0] = msgAgentAdvertisement
	binary.BigEndian.PutUint32(b[1:5], uint32(a.Agent))
	binary.BigEndian.PutUint32(b[5:9], uint32(a.CareOf))
	binary.BigEndian.PutUint16(b[9:11], a.Seq)
	binary.BigEndian.PutUint64(b[11:19], uint64(a.Lifetime))
	return b
}

// Message is any parsed Mobile IP control message.
type Message interface{ isMobileIPMessage() }

func (*RegistrationRequest) isMobileIPMessage() {}
func (*RegistrationReply) isMobileIPMessage()   {}
func (*AgentAdvertisement) isMobileIPMessage()  {}

// ParseMessage decodes a Mobile IP control payload.
func ParseMessage(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadMessage)
	}
	switch b[0] {
	case msgRegistrationRequest:
		if len(b) != regRequestSize && len(b) != regRequestAuthSize {
			return nil, fmt.Errorf("%w: request %d bytes", ErrBadMessage, len(b))
		}
		req := &RegistrationRequest{
			Home:     addr.IP(binary.BigEndian.Uint32(b[1:5])),
			HomeAg:   addr.IP(binary.BigEndian.Uint32(b[5:9])),
			CareOf:   addr.IP(binary.BigEndian.Uint32(b[9:13])),
			Lifetime: time.Duration(binary.BigEndian.Uint64(b[13:21])),
			ID:       binary.BigEndian.Uint64(b[21:29]),
		}
		if len(b) == regRequestAuthSize {
			req.HasAuth = true
			req.Nonce = binary.BigEndian.Uint64(b[29:37])
			copy(req.Token[:], b[37:])
		}
		return req, nil
	case msgRegistrationReply:
		if len(b) != regReplySize {
			return nil, fmt.Errorf("%w: reply %d bytes", ErrBadMessage, len(b))
		}
		return &RegistrationReply{
			Code:     ReplyCode(b[1]),
			Home:     addr.IP(binary.BigEndian.Uint32(b[2:6])),
			HomeAg:   addr.IP(binary.BigEndian.Uint32(b[6:10])),
			CareOf:   addr.IP(binary.BigEndian.Uint32(b[10:14])),
			Lifetime: time.Duration(binary.BigEndian.Uint64(b[14:22])),
			ID:       binary.BigEndian.Uint64(b[22:30]),
		}, nil
	case msgAgentAdvertisement:
		if len(b) != agentAdvSize {
			return nil, fmt.Errorf("%w: advertisement %d bytes", ErrBadMessage, len(b))
		}
		return &AgentAdvertisement{
			Agent:    addr.IP(binary.BigEndian.Uint32(b[1:5])),
			CareOf:   addr.IP(binary.BigEndian.Uint32(b[5:9])),
			Seq:      binary.BigEndian.Uint16(b[9:11]),
			Lifetime: time.Duration(binary.BigEndian.Uint64(b[11:19])),
		}, nil
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, b[0])
	}
}
