package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Emit(time.Second, KindRegAttempt, 0, -1, 0, 0)
	tr.AddProbe("x", func() float64 { return 1 })
	tr.SampleAll(time.Second)
	if tr != nil || tr.Events() != nil || tr.Dropped() != 0 || tr.Samples() != 0 {
		t.Fatal("nil trace must observe nothing")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
	if err := tr.WriteChrome(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteChrome: err=%v len=%d", err, buf.Len())
	}
}

func TestEmitNoAlloc(t *testing.T) {
	tr := New(Config{Capacity: 1024})
	allocs := testing.AllocsPerRun(512, func() {
		tr.Emit(time.Millisecond, KindPacketSent, 1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocated %v per op", allocs)
	}
}

func TestEmitCapacityOverflow(t *testing.T) {
	tr := New(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.Emit(time.Duration(i), KindRegAttempt, int32(i), -1, 0, 0)
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("events = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if got := KindByName(name); got != k {
			t.Fatalf("KindByName(%q) = %d, want %d", name, got, k)
		}
	}
	if got := KindByName("nope"); got != 0 {
		t.Fatalf("KindByName(nope) = %d, want 0", got)
	}
}

func TestSeriesRegistrationOrder(t *testing.T) {
	tr := New(Config{})
	tr.AddProbe("b", func() float64 { return 2 })
	tr.AddProbe("a", func() float64 { return 1 })
	tr.SampleAll(time.Second)
	tr.SampleAll(2 * time.Second)
	all := tr.AllSeries()
	if len(all) != 2 || all[0].Name != "b" || all[1].Name != "a" {
		t.Fatalf("series order = %v", all)
	}
	if tr.Samples() != 2 || len(all[0].At) != 2 || all[1].Val[1] != 1 {
		t.Fatalf("sampling: samples=%d points=%d", tr.Samples(), len(all[0].At))
	}
}

func testTrace() *Trace {
	tr := New(Config{Capacity: 64})
	tr.Meta = Meta{Scheme: "multitier-rsmc", Seed: 7, MNs: 2, Duration: 10 * time.Second}
	tr.Emit(time.Second, KindRegAttempt, 0, -1, 0, 11)
	tr.Emit(1200*time.Millisecond, KindRegAccept, 0, -1, 0, int64(200*time.Millisecond))
	tr.Emit(2*time.Second, KindHandoffTrigger, 1, 3, 0, 0)
	tr.Emit(2100*time.Millisecond, KindHandoffFirstData, 1, -1, 0, int64(100*time.Millisecond))
	tr.Emit(3*time.Second, KindFaultStationDown, -1, 5, 0, 0)
	tr.Emit(4*time.Second, KindFaultStationUp, -1, 5, 0, 0)
	tr.SeriesByName("gauge").Observe(time.Second, 1.5)
	tr.SeriesByName("gauge").Observe(2*time.Second, 2.5)
	tr.dropped = 3
	tr.sampled = 2
	return tr
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != tr.Meta {
		t.Fatalf("meta = %+v, want %+v", got.Meta, tr.Meta)
	}
	if len(got.Events()) != len(tr.Events()) {
		t.Fatalf("events = %d, want %d", len(got.Events()), len(tr.Events()))
	}
	for i, e := range got.Events() {
		if e != tr.Events()[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, tr.Events()[i])
		}
	}
	if got.Dropped() != 3 || got.Samples() != 2 {
		t.Fatalf("trailer: dropped=%d samples=%d", got.Dropped(), got.Samples())
	}
	s := got.AllSeries()
	if len(s) != 1 || s[0].Name != "gauge" || len(s[0].At) != 2 || s[0].Val[1] != 2.5 {
		t.Fatalf("series round-trip: %+v", s)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	var a, b bytes.Buffer
	if err := testTrace().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := testTrace().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical traces exported different bytes")
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := testTrace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 6 events + 2 series points.
	if len(recs) != 8 {
		t.Fatalf("records = %d, want 8", len(recs))
	}
	phases := map[string]int{}
	for _, r := range recs {
		phases[r["ph"].(string)]++
	}
	if phases["b"] != 3 || phases["e"] != 3 || phases["C"] != 2 {
		t.Fatalf("phase mix = %v", phases)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"{not json}\n",
		`{"kind":"no.such.kind","at_ns":1}` + "\n",
		`{"series":"s","at_ns":1}` + "\n", // point without value
		`{"trace":"v0"}` + "\n",
		`{"unrelated":true}` + "\n",
	} {
		if _, err := ReadJSONL(bytes.NewReader([]byte(in))); err == nil {
			t.Fatalf("ReadJSONL accepted %q", in)
		}
	}
}

// TestReadJSONLStructuralErrors pins the line-numbered diagnostics:
// truncation, trailing garbage, and mid-file corruption each name the
// exact line so a mangled multi-megabyte trace is debuggable.
func TestReadJSONLStructuralErrors(t *testing.T) {
	export := func() string {
		var buf bytes.Buffer
		if err := testTrace().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()
	lines := strings.Split(strings.TrimSuffix(export, "\n"), "\n")

	cases := []struct {
		name, in, want string
	}{
		{"truncated", strings.Join(lines[:len(lines)-1], "\n") + "\n",
			"truncated trace: no trailer"},
		{"after-trailer", export + lines[1] + "\n",
			"line " + fmt.Sprint(len(lines)+1) + ": record after trailer"},
		{"corrupt-line-2", lines[0] + "\n{broken\n",
			"line 2: corrupt record"},
		{"no-header", `{"events":0,"dropped":0,"samples":0}` + "\n",
			"no trace header"},
		{"event-miscount", lines[0] + "\n" + `{"events":7,"dropped":0,"samples":0}` + "\n",
			"trailer claims 7 events, read 0"},
	}
	for _, c := range cases {
		_, err := ReadJSONL(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestReadJSONLRuleRoundTrip pins rule-name declarations surviving the
// round trip and the aux-index consistency check.
func TestReadJSONLRuleRoundTrip(t *testing.T) {
	tr := testTrace()
	tr.declareRule("occ.hot.root-0")
	tr.declareRule("survival.dip")
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	names := got.RuleNames()
	if len(names) != 2 || names[0] != "occ.hot.root-0" || names[1] != "survival.dip" {
		t.Fatalf("rule names = %v", names)
	}
	// A rule line whose aux does not match its position is corruption.
	in := `{"trace":"v1","scheme":"s","seed":1,"mns":1,"duration_ns":1}` + "\n" +
		`{"rule":"x","aux":3}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "aux 3, want 0") {
		t.Fatalf("aux mismatch error = %v", err)
	}
}
