// Package addr models IPv4 addressing for the simulated network: addresses,
// prefixes and allocation pools. Mobile IP distinguishes a node's permanent
// home address from the care-of addresses it acquires on foreign links;
// this package provides both, carved from distinct prefixes so that tests
// can assert which network a packet claims to come from.
package addr

import (
	"errors"
	"fmt"
	"strings"
)

// Errors returned by parsing.
var (
	ErrBadAddress = errors.New("addr: malformed address")
	ErrBadPrefix  = errors.New("addr: malformed prefix")
)

// IP is an IPv4 address in host byte order. The zero value is the unspecified
// address 0.0.0.0 and is treated as "no address" throughout the simulator.
type IP uint32

// Unspecified is the zero address.
const Unspecified IP = 0

// Parse parses dotted-quad notation ("192.168.0.1").
func Parse(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	var ip uint32
	for _, p := range parts {
		n, ok := decimal(p)
		if !ok || n > 255 {
			return 0, fmt.Errorf("%w: %q", ErrBadAddress, s)
		}
		ip = ip<<8 | uint32(n)
	}
	return IP(ip), nil
}

// decimal parses a canonical unsigned decimal of at most three digits:
// no sign, no leading zero. Every number in an address or prefix length
// fits, and every accepted text is the one String prints.
func decimal(s string) (int, bool) {
	if len(s) == 0 || len(s) > 3 || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// MustParse is Parse for tests and static configuration; it panics on error.
func MustParse(s string) IP {
	ip, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String returns dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IsUnspecified reports whether ip is 0.0.0.0.
func (ip IP) IsUnspecified() bool { return ip == 0 }

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Base IP
	Bits int // 0..32
}

// NewPrefix masks base down to the prefix boundary.
func NewPrefix(base IP, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("%w: /%d", ErrBadPrefix, bits)
	}
	return Prefix{Base: base & mask(bits), Bits: bits}, nil
}

// ParsePrefix parses "10.0.0.0/8" notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
	}
	base, err := Parse(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, ok := decimal(s[slash+1:])
	if !ok {
		return Prefix{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
	}
	return NewPrefix(base, bits)
}

// MustParsePrefix panics on error; for tests and static configuration.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(bits int) IP {
	if bits <= 0 {
		return 0
	}
	return IP(^uint32(0) << (32 - bits))
}

// String returns CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Base, p.Bits) }

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool { return ip&mask(p.Bits) == p.Base }

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 { return 1 << (32 - p.Bits) }

// Nth returns the address at offset n inside the prefix.
func (p Prefix) Nth(n uint32) (IP, error) {
	if uint64(n) >= p.Size() {
		return 0, fmt.Errorf("%w: offset %d outside %s", ErrBadPrefix, n, p)
	}
	return p.Base + IP(n), nil
}

// Subnet carves the i-th /newBits subnet out of the prefix. The topology
// builder uses this to give each domain, macro-cell and micro-cell its own
// address space.
func (p Prefix) Subnet(newBits, i int) (Prefix, error) {
	if newBits < p.Bits || newBits > 32 {
		return Prefix{}, fmt.Errorf("%w: cannot carve /%d from %s", ErrBadPrefix, newBits, p)
	}
	count := 1 << (newBits - p.Bits)
	if i < 0 || i >= count {
		return Prefix{}, fmt.Errorf("%w: subnet index %d of %d", ErrBadPrefix, i, count)
	}
	base := p.Base + IP(uint32(i)<<(32-newBits))
	return Prefix{Base: base, Bits: newBits}, nil
}
