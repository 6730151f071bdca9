// Package ipv4 implements the Internet Protocol: the datagram header, the
// type-of-service field, fragmentation and reassembly.
//
// IP is the heart of the 1988 paper's architecture: the single, minimal
// building block — "some sort of packet or datagram" — that every variety
// of network must carry and every type of service is built on. Gateways
// keep no per-conversation state about datagrams (fate-sharing); anything
// stateful here (reassembly) happens only at the receiving host.
package ipv4

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// AddrFrom4 assembles an address from its four dotted-quad bytes.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// MustParseAddr parses a dotted-quad address, panicking on malformed
// input. It is intended for tests and literals in topology builders.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAddr parses a dotted-quad address such as "10.0.1.2".
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ipv4: bad address %q", s)
	}
	var a Addr
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("ipv4: bad address %q", s)
		}
		a = a<<8 | Addr(v)
	}
	return a, nil
}

// String formats the address as a dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// IsZero reports whether the address is the unspecified address 0.0.0.0.
func (a Addr) IsZero() bool { return a == 0 }

// Broadcast is the limited broadcast address 255.255.255.255.
const Broadcast Addr = 0xffffffff

// Endpoint is a transport address, TCP's and UDP's alike: host and port.
type Endpoint struct {
	Addr Addr
	Port uint16
}

// String formats the endpoint as "addr:port".
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Prefix is an address block: an address and a leading-bits count.
type Prefix struct {
	Addr Addr
	Bits int
}

// MustParsePrefix parses "addr/bits", panicking on malformed input.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses a prefix such as "10.0.1.0/24".
func ParsePrefix(s string) (Prefix, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return Prefix{}, fmt.Errorf("ipv4: bad prefix %q", s)
	}
	a, err := ParseAddr(s[:i])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[i+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipv4: bad prefix %q", s)
	}
	return Prefix{Addr: a.Mask(bits), Bits: bits}, nil
}

// Mask zeroes all but the leading bits of the address.
func (a Addr) Mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return a
	}
	return a &^ (1<<(32-bits) - 1)
}

// Compare orders prefixes by address, then by length — the one order
// every sorted prefix list uses. It returns -1, 0 or +1, as
// slices.SortFunc wants.
func (p Prefix) Compare(q Prefix) int {
	if c := cmp.Compare(p.Addr, q.Addr); c != 0 {
		return c
	}
	return cmp.Compare(p.Bits, q.Bits)
}

// Contains reports whether the prefix covers address a.
func (p Prefix) Contains(a Addr) bool { return a.Mask(p.Bits) == p.Addr }

// Host returns the n'th host address inside the prefix (n=1 is the first
// usable address by convention).
func (p Prefix) Host(n int) Addr { return p.Addr + Addr(n) }

// String formats the prefix as "addr/bits".
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }
