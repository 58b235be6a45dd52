package fleet

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary strings to the parser behind
// mmscale -fleet and mmsim -fleet. It must never panic, must reject
// anything malformed with ErrBadSpec, every spec it accepts must pass
// Validate, and String must render an accepted spec back to a string
// that parses to the same spec. The checked-in corpus under
// testdata/fuzz/FuzzParseSpec covers the edge cases: bare names,
// whitespace, hex, NaN, infinite and subnormal shares, duplicates.
//
// Run it with: go test ./internal/fleet -run '^$' -fuzz FuzzParseSpec
func FuzzParseSpec(f *testing.F) {
	f.Add(DefaultSpec().String())
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseSpec(%q) error %v is not ErrBadSpec", s, err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec: %v", s, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) rejected its own rendering of %q: %v", spec.String(), s, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("ParseSpec(%q).String() = %q parses to %+v, want %+v", s, spec.String(), again, spec)
		}
	})
}
