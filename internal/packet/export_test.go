package packet

// Packet and arena helpers no run path calls: the arena and
// copy-on-write tests use them.

// Allocated returns the number of packets the arena created fresh — the
// scenario's peak packet working set, and the number the bounded-memory
// acceptance watches: it must plateau once the pipeline fills.
func (a *Arena) Allocated() uint64 { return a.allocated }

// WritablePayload returns a payload slice safe to mutate, copying the
// bytes first when they are shared with a clone or the static zero
// buffer.
func (p *Packet) WritablePayload() []byte {
	if p.sharedPayload && p.Payload != nil {
		own := make([]byte, len(p.Payload))
		copy(own, p.Payload)
		p.Payload = own
		p.sharedPayload = false
	}
	return p.Payload
}
