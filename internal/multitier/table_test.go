package multitier

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/addr"
	"repro/internal/simtime"
	"repro/internal/topology"
)

var mnA = addr.MustParse("172.16.0.5")

func TestTableUpdateLookupExpiry(t *testing.T) {
	sched := simtime.NewScheduler()
	tab := NewTable(time.Second, sched)
	if !tab.Update(mnA, 3, 1) {
		t.Fatal("fresh update refused")
	}
	r, ok := tab.Lookup(mnA)
	if !ok || r.Via != 3 || r.Seq != 1 {
		t.Fatalf("lookup = %+v, %v", r, ok)
	}
	// Advance past TTL.
	sched.At(2*time.Second, func() {})
	sched.Run()
	if _, ok := tab.Lookup(mnA); ok {
		t.Fatal("record survived TTL")
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestTableStaleSeqIgnored(t *testing.T) {
	sched := simtime.NewScheduler()
	tab := NewTable(time.Minute, sched)
	tab.Update(mnA, 3, 10)
	if tab.Update(mnA, 9, 5) {
		t.Fatal("stale sequence applied")
	}
	r, _ := tab.Lookup(mnA)
	if r.Via != 3 {
		t.Fatalf("stale update clobbered record: %+v", r)
	}
	// Newer sequence applies.
	if !tab.Update(mnA, 9, 11) {
		t.Fatal("newer sequence refused")
	}
	// Wrap-around: near-max sequence numbers treat small ones as newer.
	wrap := NewTable(time.Minute, sched)
	if !wrap.Update(mnA, 1, 0xFFFFFFF0) {
		t.Fatal("near-max sequence refused on fresh table")
	}
	if !wrap.Update(mnA, 2, 2) { // wrapped past zero: newer
		t.Fatal("wrap-around sequence refused")
	}
}

func TestTableExpiredRecordAcceptsAnySeq(t *testing.T) {
	sched := simtime.NewScheduler()
	tab := NewTable(time.Second, sched)
	tab.Update(mnA, 3, 100)
	sched.At(2*time.Second, func() {})
	sched.Run()
	if !tab.Update(mnA, 4, 1) {
		t.Fatal("expired record should not constrain sequence")
	}
}

func TestCellTablesMicroFirst(t *testing.T) {
	sched := simtime.NewScheduler()
	ct := NewCellTables(topology.TierMacro, time.Minute, sched)
	if ct.Macro == nil {
		t.Fatal("macro station must own a macro_table")
	}
	// Micro-served record goes to micro_table.
	ct.Update(mnA, 7, 1, topology.TierMicro)
	if _, ok := ct.Micro.Lookup(mnA); !ok {
		t.Fatal("micro record missing")
	}
	if _, ok := ct.Macro.Lookup(mnA); ok {
		t.Fatal("micro record leaked into macro_table")
	}
	// Macro-served record migrates to macro_table and clears micro.
	ct.Update(mnA, 8, 2, topology.TierMacro)
	if _, ok := ct.Micro.Lookup(mnA); ok {
		t.Fatal("macro update left micro record")
	}
	r, ok := ct.Lookup(mnA)
	if !ok || r.Via != 8 {
		t.Fatalf("lookup after macro update = %+v", r)
	}
	// And back down.
	ct.Update(mnA, 9, 3, topology.TierPico)
	r, ok = ct.Lookup(mnA)
	if !ok || r.Via != 9 {
		t.Fatalf("lookup after pico update = %+v", r)
	}
	if _, ok := ct.Macro.Lookup(mnA); ok {
		t.Fatal("pico update left macro record")
	}
	ct.Delete(mnA)
	if _, ok := ct.Lookup(mnA); ok {
		t.Fatal("delete incomplete")
	}
}

func TestCellTablesMicroOnlyStations(t *testing.T) {
	sched := simtime.NewScheduler()
	ct := NewCellTables(topology.TierMicro, time.Minute, sched)
	if ct.Macro != nil {
		t.Fatal("micro station should not own a macro_table")
	}
	ct.Update(mnA, 7, 1, topology.TierMacro) // still stored, in micro table
	if _, ok := ct.Lookup(mnA); !ok {
		t.Fatal("record lost on micro-only station")
	}
}

// Property: a table never resurrects an expired or deleted record.
func TestTableNoResurrectionProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		sched := simtime.NewScheduler()
		tab := NewTable(100*time.Millisecond, sched)
		deleted := false
		seq := uint32(0)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				seq++
				tab.Update(mnA, topology.CellID(op), seq)
				deleted = false
			case 1:
				tab.Delete(mnA)
				deleted = true
			case 2:
				sched.At(sched.Now()+time.Duration(op)*time.Millisecond, func() {})
				sched.Run()
			case 3:
				if _, ok := tab.Lookup(mnA); ok && deleted {
					return false // resurrection
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		&LocationMessage{MN: mnA, Serving: 5, Seq: 9},
		&UpdateLocation{MN: mnA, NewCell: 4, OldCell: 2, Seq: 10},
		&UpdateLocation{MN: mnA, NewCell: 4, OldCell: topology.NoCell, Seq: 11},
		&DeleteLocation{MN: mnA, Cell: 2, NewCell: 4, Seq: 12},
		&DeleteLocation{MN: mnA, Cell: 2, NewCell: topology.NoCell, Seq: 13},
		&HandoffReply{MN: mnA, To: 4, Accepted: true, Seq: 14},
		&HandoffReply{MN: mnA, To: 4, Accepted: false, Seq: 15},
	}
	for i, msg := range msgs {
		var b []byte
		switch m := msg.(type) {
		case *LocationMessage:
			b = m.Marshal()
		case *UpdateLocation:
			b = m.Marshal()
		case *DeleteLocation:
			b = m.Marshal()
		case *HandoffReply:
			b = m.Marshal()
		}
		got, err := new(msgScratch).decode(b)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		switch m := msg.(type) {
		case *LocationMessage:
			if *got.(*LocationMessage) != *m {
				t.Fatalf("msg %d round trip", i)
			}
		case *UpdateLocation:
			if *got.(*UpdateLocation) != *m {
				t.Fatalf("msg %d round trip", i)
			}
		case *DeleteLocation:
			if *got.(*DeleteLocation) != *m {
				t.Fatalf("msg %d round trip", i)
			}
		case *HandoffReply:
			if *got.(*HandoffReply) != *m {
				t.Fatalf("msg %d round trip", i)
			}
		}
	}
}

func TestHandoffRequestRoundTripWithToken(t *testing.T) {
	req := &HandoffRequest{
		MN: mnA, From: 2, To: 4, BPS: 384000, SpeedMPS: 13.5, Seq: 42, Nonce: 7,
	}
	for i := range req.Token {
		req.Token[i] = byte(i)
	}
	got, err := new(msgScratch).decode(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got.(*HandoffRequest) != *req {
		t.Fatal("handoff request round trip")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {}, {99}, {msgLocation, 1}, {msgUpdateLocation}, {msgDeleteLocation, 1, 2},
		{msgHandoffRequest, 0}, {msgHandoffReply}}
	for i, b := range cases {
		if _, err := new(msgScratch).decode(b); err == nil {
			t.Fatalf("case %d parsed", i)
		}
	}
}
