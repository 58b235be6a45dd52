// Package multitier implements the paper's primary contribution (§3):
// hierarchical location management with per-cell micro_table/macro_table
// soft state refreshed by Location Messages, and the MN-controlled handoff
// strategy that weighs speed, signal power and base-station resources to
// pick a tier, with distinct procedures for the intra-domain cases
// (micro→micro, micro→macro, macro→micro, Fig 3.4) and the inter-domain
// cases (same upper BS, Fig 3.2; different upper BS, Fig 3.3).
package multitier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/addr"
	"repro/internal/topology"
)

// Message type tags on the wire.
const (
	msgLocation uint8 = iota + 1
	msgUpdateLocation
	msgDeleteLocation
	msgHandoffRequest
	msgHandoffReply
)

// Errors returned by message parsing.
var (
	ErrBadMessage = errors.New("multitier: malformed message")
)

// LocationMessage is the periodic "Location Message" of §3.1: it refreshes
// the (MN, via-cell) records in every cell table on the path from the
// serving base station up to the most upper layer of the macro-tier.
type LocationMessage struct {
	MN      addr.IP
	Serving topology.CellID // cell currently serving the MN
	Seq     uint32
}

const locationSize = 1 + 4 + 4 + 4

// Marshal renders the message to wire bytes.
func (m *LocationMessage) Marshal() []byte {
	b := make([]byte, locationSize)
	b[0] = msgLocation
	binary.BigEndian.PutUint32(b[1:5], uint32(m.MN))
	binary.BigEndian.PutUint32(b[5:9], uint32(m.Serving))
	binary.BigEndian.PutUint32(b[9:13], m.Seq)
	return b
}

// UpdateLocation is the "Update Location Message" sent after a successful
// handoff (§3.2): it installs the MN's new serving cell along the new
// path.
type UpdateLocation struct {
	MN      addr.IP
	NewCell topology.CellID
	OldCell topology.CellID // NoCell on initial attach
	Seq     uint32
}

const updateSize = 1 + 4 + 4 + 4 + 4

// Marshal renders the message to wire bytes.
func (m *UpdateLocation) Marshal() []byte {
	b := make([]byte, updateSize)
	b[0] = msgUpdateLocation
	binary.BigEndian.PutUint32(b[1:5], uint32(m.MN))
	binary.BigEndian.PutUint32(b[5:9], uint32(m.NewCell))
	binary.BigEndian.PutUint32(b[9:13], uint32(m.OldCell))
	binary.BigEndian.PutUint32(b[13:17], m.Seq)
	return b
}

// DeleteLocation is the "Delete Location Message" sent toward the old
// base station after a handoff (§3.2): it erases the stale record
// immediately instead of waiting for the TTL, and leaves behind a
// forwarding record toward NewCell ("this record will keep a while until
// MN has completed handoff", Fig 3.3). NewCell is NoCell when the MN
// vanished without a successor cell (coverage loss).
type DeleteLocation struct {
	MN      addr.IP
	Cell    topology.CellID // old cell whose record should be erased
	NewCell topology.CellID // where the MN went
	Seq     uint32
}

const deleteSize = 1 + 4 + 4 + 4 + 4

// Marshal renders the message to wire bytes.
func (m *DeleteLocation) Marshal() []byte {
	b := make([]byte, deleteSize)
	b[0] = msgDeleteLocation
	binary.BigEndian.PutUint32(b[1:5], uint32(m.MN))
	binary.BigEndian.PutUint32(b[5:9], uint32(m.Cell))
	binary.BigEndian.PutUint32(b[9:13], uint32(m.NewCell))
	binary.BigEndian.PutUint32(b[13:17], m.Seq)
	return b
}

// TokenSize is the authentication token length carried by handoff
// requests (HMAC-SHA256).
const TokenSize = 32

// HandoffRequest asks a target base station to admit the MN (§3.2: "it
// musts send a request message to new BS"). Nonce and Token authenticate
// the MN to the domain's RSMC (§4).
type HandoffRequest struct {
	MN       addr.IP
	From     topology.CellID // NoCell on initial attach
	To       topology.CellID
	BPS      float64 // bandwidth demand of the MN's flows
	SpeedMPS float64 // MN speed, a handoff decision factor
	Seq      uint32
	Nonce    uint64
	Token    [TokenSize]byte
}

const handoffReqSize = 1 + 4 + 4 + 4 + 8 + 8 + 4 + 8 + TokenSize

// marshalTo renders the message into b.
func (m *HandoffRequest) marshalTo(b *[handoffReqSize]byte) {
	b[0] = msgHandoffRequest
	binary.BigEndian.PutUint32(b[1:5], uint32(m.MN))
	binary.BigEndian.PutUint32(b[5:9], uint32(m.From))
	binary.BigEndian.PutUint32(b[9:13], uint32(m.To))
	binary.BigEndian.PutUint64(b[13:21], floatBits(m.BPS))
	binary.BigEndian.PutUint64(b[21:29], floatBits(m.SpeedMPS))
	binary.BigEndian.PutUint32(b[29:33], m.Seq)
	binary.BigEndian.PutUint64(b[33:41], m.Nonce)
	copy(b[41:41+TokenSize], m.Token[:])
}

// HandoffReply accepts or rejects a handoff request.
type HandoffReply struct {
	MN       addr.IP
	To       topology.CellID
	Accepted bool
	Seq      uint32
}

const handoffRepSize = 1 + 4 + 4 + 1 + 4

// Marshal renders the message to wire bytes.
func (m *HandoffReply) Marshal() []byte {
	b := make([]byte, handoffRepSize)
	b[0] = msgHandoffReply
	binary.BigEndian.PutUint32(b[1:5], uint32(m.MN))
	binary.BigEndian.PutUint32(b[5:9], uint32(m.To))
	if m.Accepted {
		b[9] = 1
	}
	binary.BigEndian.PutUint32(b[10:14], m.Seq)
	return b
}

// Message is any parsed multi-tier control message.
type Message interface{ isMultiTierMessage() }

func (*LocationMessage) isMultiTierMessage() {}
func (*UpdateLocation) isMultiTierMessage()  {}
func (*DeleteLocation) isMultiTierMessage()  {}
func (*HandoffRequest) isMultiTierMessage()  {}
func (*HandoffReply) isMultiTierMessage()    {}

// msgScratch is caller-owned decode storage, one message of each type. A
// receiver that finishes with each message before it decodes the next
// decodes into one without allocating: a station handles a control
// packet to completion inside its delivery and keeps one; a mobile keeps
// nothing of a reply, so its scratch stays on the stack.
type msgScratch struct {
	loc LocationMessage
	upd UpdateLocation
	del DeleteLocation
	req HandoffRequest
	rep HandoffReply
}

// decode decodes b into the scratch message of its type and returns it;
// the next decode of that type overwrites it.
func (sc *msgScratch) decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadMessage)
	}
	switch b[0] {
	case msgLocation:
		if len(b) != locationSize {
			return nil, fmt.Errorf("%w: location %d bytes", ErrBadMessage, len(b))
		}
		sc.loc = LocationMessage{
			MN:      addr.IP(binary.BigEndian.Uint32(b[1:5])),
			Serving: topology.CellID(int32(binary.BigEndian.Uint32(b[5:9]))),
			Seq:     binary.BigEndian.Uint32(b[9:13]),
		}
		return &sc.loc, nil
	case msgUpdateLocation:
		if len(b) != updateSize {
			return nil, fmt.Errorf("%w: update %d bytes", ErrBadMessage, len(b))
		}
		sc.upd = UpdateLocation{
			MN:      addr.IP(binary.BigEndian.Uint32(b[1:5])),
			NewCell: topology.CellID(int32(binary.BigEndian.Uint32(b[5:9]))),
			OldCell: topology.CellID(int32(binary.BigEndian.Uint32(b[9:13]))),
			Seq:     binary.BigEndian.Uint32(b[13:17]),
		}
		return &sc.upd, nil
	case msgDeleteLocation:
		if len(b) != deleteSize {
			return nil, fmt.Errorf("%w: delete %d bytes", ErrBadMessage, len(b))
		}
		sc.del = DeleteLocation{
			MN:      addr.IP(binary.BigEndian.Uint32(b[1:5])),
			Cell:    topology.CellID(int32(binary.BigEndian.Uint32(b[5:9]))),
			NewCell: topology.CellID(int32(binary.BigEndian.Uint32(b[9:13]))),
			Seq:     binary.BigEndian.Uint32(b[13:17]),
		}
		return &sc.del, nil
	case msgHandoffRequest:
		if len(b) != handoffReqSize {
			return nil, fmt.Errorf("%w: handoff request %d bytes", ErrBadMessage, len(b))
		}
		sc.req = HandoffRequest{
			MN:       addr.IP(binary.BigEndian.Uint32(b[1:5])),
			From:     topology.CellID(int32(binary.BigEndian.Uint32(b[5:9]))),
			To:       topology.CellID(int32(binary.BigEndian.Uint32(b[9:13]))),
			BPS:      bitsFloat(binary.BigEndian.Uint64(b[13:21])),
			SpeedMPS: bitsFloat(binary.BigEndian.Uint64(b[21:29])),
			Seq:      binary.BigEndian.Uint32(b[29:33]),
			Nonce:    binary.BigEndian.Uint64(b[33:41]),
		}
		copy(sc.req.Token[:], b[41:41+TokenSize])
		return &sc.req, nil
	case msgHandoffReply:
		if len(b) != handoffRepSize {
			return nil, fmt.Errorf("%w: handoff reply %d bytes", ErrBadMessage, len(b))
		}
		sc.rep = HandoffReply{
			MN:       addr.IP(binary.BigEndian.Uint32(b[1:5])),
			To:       topology.CellID(int32(binary.BigEndian.Uint32(b[5:9]))),
			Accepted: b[9] == 1,
			Seq:      binary.BigEndian.Uint32(b[10:14]),
		}
		return &sc.rep, nil
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, b[0])
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(u uint64) float64 { return math.Float64frombits(u) }
