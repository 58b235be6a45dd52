package packet

// Dedup is a receiver's duplicate filter. Bicasting during a handoff and
// page floods can deliver a data packet more than once, and buffer
// drains reorder packets; the MN must pass each (flow, seq) up once.
//
// Each flow keeps a sequence window, the anti-replay bitmap of RFC 4303:
// the newest seq seen and a 64-bit mask whose bit d records seq
// newest-d. A seq newer than the newest slides the window and is new. A
// seq 1–63 behind is a duplicate iff its bit is set. A seq 64 or more
// behind is too old to judge and is passed up. Seqs compare as plain
// uint32s, so the window never wraps past 0xFFFFFFFF.
//
// A receiver sees a few flows, so the windows sit in a short slice
// scanned linearly, 16 bytes per flow. The zero value is ready to use.
type Dedup struct {
	flows []seqWindow
}

type seqWindow struct {
	flow   uint32
	newest uint32
	seen   uint64 // bit d set: seq newest-d has arrived
}

// Duplicate records (flow, seq) and reports whether it was already seen.
//
//mmlint:noalloc
func (d *Dedup) Duplicate(flow, seq uint32) bool {
	for i := range d.flows {
		w := &d.flows[i]
		if w.flow != flow {
			continue
		}
		if seq > w.newest {
			w.seen = w.seen<<(seq-w.newest) | 1 // a shift of 64 or more clears the mask
			w.newest = seq
			return false
		}
		bit := uint64(1) << (w.newest - seq) // 0 once seq is 64 or more behind
		dup := w.seen&bit != 0
		w.seen |= bit
		return dup
	}
	d.flows = append(d.flows, seqWindow{flow: flow, newest: seq, seen: 1}) //mmlint:alloc-ok first packet of a new flow
	return false
}
