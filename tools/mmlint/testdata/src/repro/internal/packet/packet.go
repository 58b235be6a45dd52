// Package packet is a fixture stub of repro/internal/packet: the facts
// tables match by import path and name, so only the shapes the fixtures
// exercise exist here.
package packet

type Packet struct {
	Src, Dst uint32
	Flags    uint16
	Inner    *Packet
}

func New() *Packet                                       { return &Packet{} }
func NewFrom(src, dst uint32) *Packet                    { return &Packet{Src: src, Dst: dst} }
func NewControl(src, dst uint32, payload []byte) *Packet { return &Packet{Src: src, Dst: dst} }

func Encapsulate(src, dst uint32, inner *Packet) (*Packet, error) {
	if inner == nil {
		return nil, errNil
	}
	return &Packet{Src: src, Dst: dst, Inner: inner}, nil
}

func (p *Packet) Clone() *Packet       { c := *p; return &c }
func (p *Packet) Decapsulate() *Packet { return p.Inner }
func (p *Packet) Size() int            { return 64 }
func (p *Packet) DecrementTTL() error  { return nil }

func Release(p *Packet) {}

type simpleError string

func (e simpleError) Error() string { return string(e) }

var errNil = simpleError("nil inner packet")
