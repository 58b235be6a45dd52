// Package cellularip implements the Cellular IP substrate of the paper
// (§2.2.2, Figs 2.3/2.4): an access network of base stations rooted at a
// gateway, with per-station soft-state routing caches refreshed by
// route-update packets and by regular uplink data, paging caches for idle
// hosts, and both hard and semisoft handoff.
//
// It serves double duty as the micro-tier protocol of the multi-tier
// architecture and as a standalone baseline scheme in the experiments.
package cellularip

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/addr"
)

// Message type tags on the wire.
const (
	msgRouteUpdate uint8 = iota + 1
	msgPagingUpdate
)

// Errors returned by message parsing.
var (
	ErrBadMessage = errors.New("cellularip: malformed message")
)

// RouteUpdate refreshes the routing-cache chain from the sending host's
// base station up to the gateway. Semisoft updates *add* a mapping at each
// hop instead of replacing, creating the temporary bicast at the crossover
// base station.
type RouteUpdate struct {
	Host     addr.IP
	Seq      uint32
	Semisoft bool
}

const routeUpdateSize = 1 + 4 + 4 + 1

// Marshal renders the update to wire bytes.
func (r *RouteUpdate) Marshal() []byte {
	b := make([]byte, routeUpdateSize)
	b[0] = msgRouteUpdate
	binary.BigEndian.PutUint32(b[1:5], uint32(r.Host))
	binary.BigEndian.PutUint32(b[5:9], r.Seq)
	if r.Semisoft {
		b[9] = 1
	}
	return b
}

// PagingUpdate refreshes the paging-cache chain for an idle host.
type PagingUpdate struct {
	Host addr.IP
	Seq  uint32
}

const pagingUpdateSize = 1 + 4 + 4

// Marshal renders the update to wire bytes.
func (p *PagingUpdate) Marshal() []byte {
	b := make([]byte, pagingUpdateSize)
	b[0] = msgPagingUpdate
	binary.BigEndian.PutUint32(b[1:5], uint32(p.Host))
	binary.BigEndian.PutUint32(b[5:9], p.Seq)
	return b
}

// Message is any parsed Cellular IP control message.
type Message interface{ isCellularIPMessage() }

func (*RouteUpdate) isCellularIPMessage()  {}
func (*PagingUpdate) isCellularIPMessage() {}

// msgScratch is caller-owned decode storage, one message of each type. A
// base station handles a control packet to completion before it decodes
// the next — it applies the update and forwards the packet itself, never
// the message — so it decodes into one without allocating.
type msgScratch struct {
	route  RouteUpdate
	paging PagingUpdate
}

// decode decodes a Cellular IP control payload into the scratch message
// of its type and returns it; the next decode of that type overwrites it.
func (sc *msgScratch) decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadMessage)
	}
	switch b[0] {
	case msgRouteUpdate:
		if len(b) != routeUpdateSize {
			return nil, fmt.Errorf("%w: route update %d bytes", ErrBadMessage, len(b))
		}
		sc.route = RouteUpdate{
			Host:     addr.IP(binary.BigEndian.Uint32(b[1:5])),
			Seq:      binary.BigEndian.Uint32(b[5:9]),
			Semisoft: b[9] == 1,
		}
		return &sc.route, nil
	case msgPagingUpdate:
		if len(b) != pagingUpdateSize {
			return nil, fmt.Errorf("%w: paging update %d bytes", ErrBadMessage, len(b))
		}
		sc.paging = PagingUpdate{
			Host: addr.IP(binary.BigEndian.Uint32(b[1:5])),
			Seq:  binary.BigEndian.Uint32(b[5:9]),
		}
		return &sc.paging, nil
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, b[0])
	}
}
