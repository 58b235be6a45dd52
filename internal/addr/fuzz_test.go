package addr

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary strings to the dotted-quad parser that reads
// addresses from configuration and the command line. It must never
// panic, must reject anything malformed with ErrBadAddress, must reject
// every truncation that drops the last octet, and whatever it accepts
// must be in canonical form: String renders it back to the same text.
//
// Run it with: go test ./internal/addr -run '^$' -fuzz FuzzParse
func FuzzParse(f *testing.F) {
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "172.16.0.1", "10.0.0.01", "1.2.3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := Parse(s)
		if err != nil {
			if !errors.Is(err, ErrBadAddress) {
				t.Fatalf("Parse(%q) error %v is not ErrBadAddress", s, err)
			}
			return
		}
		if back := ip.String(); back != s {
			t.Fatalf("Parse(%q).String() = %q", s, back)
		}
		for k := 0; k <= strings.LastIndexByte(s, '.')+1; k++ {
			if _, err := Parse(s[:k]); err == nil {
				t.Fatalf("Parse accepted %q, a truncation of %q", s[:k], s)
			}
		}
	})
}

// FuzzParsePrefix does the same for CIDR prefixes. ParsePrefix masks the
// base down to the prefix boundary, so the round trip is
// ParsePrefix(p.String()) == p, and the text is canonical exactly when
// the base was already masked. Every truncation that drops the length
// must be rejected.
//
// Run it with: go test ./internal/addr -run '^$' -fuzz FuzzParsePrefix
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{"172.16.0.0/16", "0.0.0.0/0", "10.1.2.3/8", "1.2.3.4/32", "1.2.3.4/33", "1.2.3.4"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			if !errors.Is(err, ErrBadAddress) && !errors.Is(err, ErrBadPrefix) {
				t.Fatalf("ParsePrefix(%q) error %v is neither ErrBadAddress nor ErrBadPrefix", s, err)
			}
			return
		}
		back, err := ParsePrefix(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePrefix(%q) = %v, but ParsePrefix(%q) = %v, %v", s, p, p.String(), back, err)
		}
		slash := strings.IndexByte(s, '/')
		if base := MustParse(s[:slash]); (base == p.Base) != (p.String() == s) {
			t.Fatalf("ParsePrefix(%q) = %v: canonical text must mean an already-masked base", s, p)
		}
		for k := 0; k <= slash+1; k++ {
			if _, err := ParsePrefix(s[:k]); err == nil {
				t.Fatalf("ParsePrefix accepted %q, a truncation of %q", s[:k], s)
			}
		}
	})
}
