package addr

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	tests := []struct {
		in   string
		want IP
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", IP(0xFFFFFFFF), true},
		{"10.0.0.1", IP(0x0A000001), true},
		{"192.168.1.200", IP(0xC0A801C8), true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"-1.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"01.2.3.4", 0, false}, // leading zero rejected
		{"+1.2.3.4", 0, false}, // signs rejected
		{"-0.1.2.3", 0, false},
		{"", 0, false},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if tt.ok && (err != nil || got != tt.want) {
			t.Errorf("Parse(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
		if !tt.ok && err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tt.in)
		}
		if tt.ok {
			if back := got.String(); back != tt.in {
				t.Errorf("String round trip %q -> %q", tt.in, back)
			}
		}
	}
}

func TestParseErrorsAreMatchable(t *testing.T) {
	_, err := Parse("300.1.1.1")
	if !errors.Is(err, ErrBadAddress) {
		t.Fatalf("Parse error = %v, want ErrBadAddress", err)
	}
	_, err = ParsePrefix("10.0.0.0/99")
	if !errors.Is(err, ErrBadPrefix) {
		t.Fatalf("ParsePrefix error = %v, want ErrBadPrefix", err)
	}
	_, err = ParsePrefix("10.0.0.0")
	if !errors.Is(err, ErrBadPrefix) {
		t.Fatalf("ParsePrefix no-slash error = %v, want ErrBadPrefix", err)
	}
	for _, s := range []string{"10.0.0.0/+8", "10.0.0.0/08", "10.0.0.0/-0"} {
		if _, err = ParsePrefix(s); !errors.Is(err, ErrBadPrefix) {
			t.Fatalf("ParsePrefix(%q) error = %v, want ErrBadPrefix", s, err)
		}
	}
}

func TestStringParseRoundTripProperty(t *testing.T) {
	prop := func(v uint32) bool {
		ip := IP(v)
		back, err := Parse(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParse("10.1.0.1")) || !p.Contains(MustParse("10.1.255.255")) {
		t.Fatal("addresses inside prefix reported outside")
	}
	if p.Contains(MustParse("10.2.0.1")) || p.Contains(MustParse("11.1.0.1")) {
		t.Fatal("addresses outside prefix reported inside")
	}
	if p.Size() != 65536 {
		t.Fatalf("Size = %d", p.Size())
	}
}

func TestPrefixMasksBase(t *testing.T) {
	p, err := NewPrefix(MustParse("10.1.2.3"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != MustParse("10.1.0.0") {
		t.Fatalf("base not masked: %v", p.Base)
	}
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPrefixNth(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/24")
	ip, err := p.Nth(5)
	if err != nil || ip != MustParse("10.0.0.5") {
		t.Fatalf("Nth(5) = %v, %v", ip, err)
	}
	if _, err := p.Nth(256); err == nil {
		t.Fatal("Nth out of range should fail")
	}
}

func TestSubnet(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	s0, err := p.Subnet(16, 0)
	if err != nil || s0.String() != "10.0.0.0/16" {
		t.Fatalf("Subnet(16,0) = %v, %v", s0, err)
	}
	s5, err := p.Subnet(16, 5)
	if err != nil || s5.String() != "10.5.0.0/16" {
		t.Fatalf("Subnet(16,5) = %v, %v", s5, err)
	}
	if _, err := p.Subnet(16, 256); err == nil {
		t.Fatal("subnet index out of range should fail")
	}
	if _, err := p.Subnet(4, 0); err == nil {
		t.Fatal("wider subnet should fail")
	}
	// Sibling subnets must be disjoint.
	for i := 0; i < 8; i++ {
		a, _ := p.Subnet(11, i)
		for j := i + 1; j < 8; j++ {
			b, _ := p.Subnet(11, j)
			if a.Contains(b.Base) || b.Contains(a.Base) {
				t.Fatalf("subnets %v and %v overlap", a, b)
			}
		}
	}
}

func TestOctets(t *testing.T) {
	ip := MustParse("1.2.3.4")
	if o := ip.Octets(); o != [4]byte{1, 2, 3, 4} {
		t.Fatalf("Octets = %v", o)
	}
	if !Unspecified.IsUnspecified() || MustParse("0.0.0.1").IsUnspecified() {
		t.Fatal("IsUnspecified misbehaves")
	}
}
