package obs

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// sameTrace reports the first exported-state difference between two
// traces as read back from JSONL: meta, rules, events, every series point
// (values compared bit for bit) and the trailer totals. It returns "" when
// they agree.
func sameTrace(a, b *Trace) string {
	switch {
	case a.Meta != b.Meta:
		return "meta"
	case !slices.Equal(a.rules, b.rules):
		return "rules"
	case !slices.Equal(a.events, b.events):
		return "events"
	case a.dropped != b.dropped || a.sampled != b.sampled:
		return "trailer totals"
	case len(a.series) != len(b.series):
		return "series count"
	}
	for i, s := range a.series {
		o := b.series[i]
		if s.Name != o.Name || !slices.Equal(s.At, o.At) ||
			!slices.EqualFunc(s.Val, o.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return "series " + s.Name
		}
	}
	return ""
}

// FuzzReadJSONL feeds arbitrary bytes to the trace decoder mmtrace reads
// exports with. It must never panic; whatever it accepts must write back
// with WriteJSONL and read again to the same trace; and every cut of that
// export short of its complete trailer line must be rejected as
// truncated or corrupt.
//
// Run it with: go test ./internal/obs -run '^$' -fuzz FuzzReadJSONL
func FuzzReadJSONL(f *testing.F) {
	var seed bytes.Buffer
	if err := testTrace().WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.WriteJSONL(&out); err != nil {
			t.Fatalf("WriteJSONL of an accepted trace: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSONL rejects its own export: %v\n%s", err, out.Bytes())
		}
		if diff := sameTrace(tr, back); diff != "" {
			t.Fatalf("round trip changed the %s\ninput:  %q\nexport: %q", diff, data, out.Bytes())
		}
		// The export ends "...}\n": a cut that keeps only the final
		// newline off still holds the whole trailer, every shorter one
		// must fail. Long exports are cut at a stride plus the last byte
		// before the trailer's closing brace.
		wire := out.Bytes()
		step := max(1, len(wire)/64)
		for k := 0; k < len(wire)-1; k += step {
			if _, err := ReadJSONL(bytes.NewReader(wire[:k])); err == nil {
				t.Fatalf("ReadJSONL accepted the export cut to %d of %d bytes: %q", k, len(wire), wire[:k])
			}
		}
		if _, err := ReadJSONL(bytes.NewReader(wire[:len(wire)-2])); err == nil {
			t.Fatalf("ReadJSONL accepted the export without its trailer's closing brace: %q", wire)
		}
	})
}
