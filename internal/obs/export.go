package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The JSONL export is one JSON object per line: a header carrying the
// run Meta, the events in emission order, every series point in series
// registration order, and a trailer with the event/drop/sample totals.
// All numbers are virtual-time nanoseconds or plain scalars, so the file
// is byte-identical across sequential and parallel runs.

// jsonLine is the union of every JSONL record shape; the populated
// fields identify the record (TraceVersion → header, Kind → event,
// Series → sample point, Events|Dropped → trailer).
type jsonLine struct {
	TraceVersion string `json:"trace,omitempty"`
	Scheme       string `json:"scheme,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	MNs          int    `json:"mns,omitempty"`
	DurationNS   int64  `json:"duration_ns,omitempty"`

	AtNS  int64  `json:"at_ns,omitempty"`
	Kind  string `json:"kind,omitempty"`
	Actor int32  `json:"actor,omitempty"`
	Cell  int32  `json:"cell,omitempty"`
	Aux   int32  `json:"aux,omitempty"`
	Val   int64  `json:"val,omitempty"`

	Series string   `json:"series,omitempty"`
	V      *float64 `json:"v,omitempty"`

	Rule string `json:"rule,omitempty"`

	Events  *int    `json:"events,omitempty"`
	Dropped *uint64 `json:"dropped,omitempty"`
	Samples *int    `json:"samples,omitempty"`
}

// traceVersion is the JSONL schema version stamp.
const traceVersion = "v1"

// WriteJSONL writes the deterministic JSONL export.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"trace":%q,"scheme":%s,"seed":%d,"mns":%d,"duration_ns":%d}`+"\n",
		traceVersion, quoteJSON(t.Meta.Scheme), t.Meta.Seed, t.Meta.MNs, int64(t.Meta.Duration))
	for i, name := range t.rules {
		fmt.Fprintf(bw, `{"rule":%s,"aux":%d}`+"\n", quoteJSON(name), i)
	}
	for i := range t.events {
		e := &t.events[i]
		fmt.Fprintf(bw, `{"at_ns":%d,"kind":%q,"actor":%d,"cell":%d,"aux":%d,"val":%d}`+"\n",
			int64(e.At), e.Kind.String(), e.Actor, e.Cell, e.Aux, e.Val)
	}
	for _, s := range t.series {
		for i := range s.At {
			fmt.Fprintf(bw, `{"series":%s,"at_ns":%d,"v":%s}`+"\n",
				quoteJSON(s.Name), int64(s.At[i]), formatFloat(s.Val[i]))
		}
	}
	fmt.Fprintf(bw, `{"events":%d,"dropped":%d,"samples":%d}`+"\n",
		len(t.events), t.dropped, t.sampled)
	return bw.Flush()
}

// quoteJSON renders s as a JSON string literal. Scheme, rule and series
// names can come from a file ReadJSONL accepted, and %q would write
// their control characters as Go escapes (\x00, \a) that are not JSON.
// For the printable ASCII names the simulator itself uses, the output
// matches %q byte for byte.
func quoteJSON(s string) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s) // a string always encodes
	return strings.TrimSuffix(b.String(), "\n")
}

// formatFloat renders a float the same way on every platform: shortest
// round-trip representation, never exponent-free surprises from %v.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ReadJSONL parses a JSONL export back into a Trace (events, series,
// rule names and meta; probes and capacity do not round-trip). It
// tolerates unknown fields so newer writers stay readable, but rejects
// structural damage with a line-numbered error: a corrupt or
// half-written line, records after the trailer, and — because every
// complete export ends with a trailer — a file cut short before it.
func ReadJSONL(r io.Reader) (*Trace, error) {
	t := &Trace{byName: make(map[string]*Series)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	sawHeader, sawTrailer := false, false
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if sawTrailer {
			return nil, fmt.Errorf("obs: line %d: record after trailer (corrupt or concatenated trace)", lineNo)
		}
		var l jsonLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("obs: line %d: corrupt record: %w", lineNo, err)
		}
		switch {
		case l.TraceVersion != "":
			if l.TraceVersion != traceVersion {
				return nil, fmt.Errorf("obs: unsupported trace version %q", l.TraceVersion)
			}
			sawHeader = true
			t.Meta = Meta{Scheme: l.Scheme, Seed: l.Seed, MNs: l.MNs, Duration: time.Duration(l.DurationNS)}
		case l.Rule != "":
			if int(l.Aux) != len(t.rules) {
				return nil, fmt.Errorf("obs: line %d: rule %q declares aux %d, want %d", lineNo, l.Rule, l.Aux, len(t.rules))
			}
			t.rules = append(t.rules, l.Rule)
		case l.Series != "":
			if l.V == nil {
				return nil, fmt.Errorf("obs: line %d: series point without value", lineNo)
			}
			t.SeriesByName(l.Series).Observe(time.Duration(l.AtNS), *l.V)
		case l.Kind != "":
			k := KindByName(l.Kind)
			if k == 0 {
				return nil, fmt.Errorf("obs: line %d: unknown kind %q", lineNo, l.Kind)
			}
			t.events = append(t.events, Event{
				At: time.Duration(l.AtNS), Kind: k,
				Actor: l.Actor, Cell: l.Cell, Aux: l.Aux, Val: l.Val,
			})
		case l.Events != nil || l.Dropped != nil:
			sawTrailer = true
			if l.Dropped != nil {
				t.dropped = *l.Dropped
			}
			if l.Samples != nil {
				t.sampled = *l.Samples
			}
			if l.Events != nil && *l.Events != len(t.events) {
				return nil, fmt.Errorf("obs: trailer claims %d events, read %d", *l.Events, len(t.events))
			}
		default:
			return nil, fmt.Errorf("obs: line %d: unrecognized record", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: line %d: %w", lineNo+1, err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("obs: no trace header in %d lines (not a JSONL trace?)", lineNo)
	}
	if !sawTrailer {
		return nil, fmt.Errorf("obs: truncated trace: no trailer after %d lines (file cut short?)", lineNo)
	}
	return t, nil
}

// chromeSpan maps a begin kind to its matching end kind and the async
// span identity (name plus which operand scopes the span id).
var chromeSpans = map[Kind]struct {
	end    Kind
	name   string
	byCell bool // id from Cell (else Actor)
	byAux  bool // id from Aux (link spans)
}{
	KindRegAttempt:       {end: KindRegAccept, name: "registration"},
	KindHandoffTrigger:   {end: KindHandoffFirstData, name: "handoff"},
	KindFaultStationDown: {end: KindFaultStationUp, name: "station-outage", byCell: true},
	KindFaultFadeStart:   {end: KindFaultFadeEnd, name: "radio-fade", byCell: true},
	KindFaultLinkDegrade: {end: KindFaultLinkRestore, name: "link-degrade", byAux: true},
}

// WriteChrome writes the trace in Chrome trace-event format (load it in
// chrome://tracing or Perfetto): lifecycle spans become async b/e pairs,
// everything else instant events, and sampled series become counter
// tracks. Deterministic for the same reasons as WriteJSONL.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	// Open ends: track which begin kinds are pending per id so a span cut
	// off by the run end still closes (Chrome drops unmatched "b").
	endFor := make(map[Kind]Kind, len(chromeSpans))
	//mmlint:ordered map-to-map inversion over distinct keys; insertion order is invisible
	for b, sp := range chromeSpans {
		endFor[sp.end] = b
	}
	us := func(at time.Duration) string { return formatFloat(float64(at) / 1e3) }
	for i := range t.events {
		e := &t.events[i]
		if sp, ok := chromeSpans[e.Kind]; ok {
			id := e.Actor
			if sp.byCell {
				id = e.Cell
			} else if sp.byAux {
				id = e.Aux
			}
			emit(`{"name":%q,"cat":"span","ph":"b","id":%d,"pid":0,"tid":%d,"ts":%s}`,
				sp.name, id, id, us(e.At))
			continue
		}
		if b, ok := endFor[e.Kind]; ok {
			sp := chromeSpans[b]
			id := e.Actor
			if sp.byCell {
				id = e.Cell
			} else if sp.byAux {
				id = e.Aux
			}
			emit(`{"name":%q,"cat":"span","ph":"e","id":%d,"pid":0,"tid":%d,"ts":%s}`,
				sp.name, id, id, us(e.At))
			continue
		}
		emit(`{"name":%q,"cat":"event","ph":"i","s":"t","pid":0,"tid":%d,"ts":%s,"args":{"cell":%d,"aux":%d,"val":%d}}`,
			e.Kind.String(), e.Actor, us(e.At), e.Cell, e.Aux, e.Val)
	}
	for _, s := range t.series {
		for i := range s.At {
			emit(`{"name":%s,"cat":"series","ph":"C","pid":0,"ts":%s,"args":{"v":%s}}`,
				quoteJSON(s.Name), us(s.At[i]), formatFloat(s.Val[i]))
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}
