// Package names is the naming layer the 1988 architecture left out: a
// DNS-like directory service mapped onto the reproduction's own stack.
// Directory servers hold a serial-numbered zone of name→address records
// and answer queries over real UDP; hosts run a caching resolver with
// TTL expiry, retry-with-backoff and replica failover; and a new host
// autoconfigures on attach — it broadcasts a discovery probe, learns
// its gateway and the replica list from the answering agent, installs
// its default route and registers its own name, all without manual
// route or table edits. Per the end-to-end argument, recovery from a
// crashed directory or a renumbered host lives here, above the
// datagram layer: clients re-resolve and fail over; the network below
// only ever moves packets toward addresses.
package names

import (
	"errors"
	"fmt"

	"darpanet/internal/ipv4"
)

// Well-known UDP ports: the directory service and the on-LAN
// autoconfiguration agent (the reproduction's stand-ins for 53 and 67).
const (
	Port      uint16 = 9353
	AgentPort uint16 = 9367
)

// Message ops. Query/Answer is the resolver path, Register/Ack the
// host-registration path, Update the server-to-server replication push,
// Discover/Offer the autoconfiguration handshake.
const (
	OpQuery byte = 1 + iota
	OpAnswer
	OpRegister
	OpAck
	OpUpdate
	OpDiscover
	OpOffer
	opMax = OpOffer
)

// FlagNegative marks an Answer as authoritative non-existence; the
// record carries the name and the negative-cache TTL, address zero.
const FlagNegative byte = 0x01

const (
	wireVersion = 1
	headerLen   = 10
	recFixed    = 13 // nameLen byte + addr(4) + serial(4) + ttl(4)

	// MaxName bounds record names; MaxRecords bounds a message.
	MaxName    = 63
	MaxRecords = 255
)

// Record is one name→address binding. Serial is the registration
// version (a renumbered host re-registers with a higher serial; the
// higher serial wins everywhere). TTLms is how long a cache may hold
// the answer, in simulated milliseconds.
type Record struct {
	Name   string
	Addr   ipv4.Addr
	Serial uint32
	TTLms  uint32
}

// Message is one directory-protocol datagram. Serial carries the
// sender's zone serial on Answer/Ack/Update (diagnostic on the others).
type Message struct {
	Op       byte
	Negative bool
	ID       uint16
	Serial   uint32
	Records  []Record
}

// Marshal serializes the message. The encoding is canonical: Marshal
// after Parse reproduces the input bytes exactly, which is what the
// round-trip fuzzer pins.
func (m *Message) Marshal() ([]byte, error) {
	if m.Op < 1 || m.Op > opMax {
		return nil, fmt.Errorf("names: bad op %d", m.Op)
	}
	if len(m.Records) > MaxRecords {
		return nil, fmt.Errorf("names: %d records exceeds %d", len(m.Records), MaxRecords)
	}
	size := headerLen
	for _, r := range m.Records {
		if len(r.Name) < 1 || len(r.Name) > MaxName {
			return nil, fmt.Errorf("names: record name length %d outside [1,%d]", len(r.Name), MaxName)
		}
		size += recFixed + len(r.Name)
	}
	b := make([]byte, 0, size)
	var flags byte
	if m.Negative {
		flags |= FlagNegative
	}
	b = append(b, wireVersion, m.Op, flags, byte(m.ID>>8), byte(m.ID))
	b = append(b, byte(m.Serial>>24), byte(m.Serial>>16), byte(m.Serial>>8), byte(m.Serial))
	b = append(b, byte(len(m.Records)))
	for _, r := range m.Records {
		b = append(b, byte(len(r.Name)))
		b = append(b, r.Name...)
		b = append(b, byte(r.Addr>>24), byte(r.Addr>>16), byte(r.Addr>>8), byte(r.Addr))
		b = append(b, byte(r.Serial>>24), byte(r.Serial>>16), byte(r.Serial>>8), byte(r.Serial))
		b = append(b, byte(r.TTLms>>24), byte(r.TTLms>>16), byte(r.TTLms>>8), byte(r.TTLms))
	}
	return b, nil
}

var errTruncated = errors.New("names: truncated message")

// Parse decodes a directory-protocol datagram. It is strict — unknown
// version, unknown op, reserved flag bits, bad name lengths or trailing
// bytes are all errors — so every accepted input has exactly one
// canonical encoding.
func Parse(b []byte) (Message, error) {
	var m Message
	if len(b) < headerLen {
		return m, errTruncated
	}
	if b[0] != wireVersion {
		return m, fmt.Errorf("names: unknown version %d", b[0])
	}
	m.Op = b[1]
	if m.Op < 1 || m.Op > opMax {
		return m, fmt.Errorf("names: bad op %d", m.Op)
	}
	flags := b[2]
	if flags&^FlagNegative != 0 {
		return m, fmt.Errorf("names: reserved flag bits %#x", flags)
	}
	m.Negative = flags&FlagNegative != 0
	m.ID = uint16(b[3])<<8 | uint16(b[4])
	m.Serial = uint32(b[5])<<24 | uint32(b[6])<<16 | uint32(b[7])<<8 | uint32(b[8])
	n := int(b[9])
	off := headerLen
	for i := 0; i < n; i++ {
		if off >= len(b) {
			return m, errTruncated
		}
		nl := int(b[off])
		if nl < 1 || nl > MaxName {
			return m, fmt.Errorf("names: record name length %d outside [1,%d]", nl, MaxName)
		}
		off++
		if off+nl+12 > len(b) {
			return m, errTruncated
		}
		var r Record
		r.Name = string(b[off : off+nl])
		off += nl
		r.Addr = ipv4.Addr(uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3]))
		off += 4
		r.Serial = uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
		off += 4
		r.TTLms = uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
		off += 4
		m.Records = append(m.Records, r)
	}
	if off != len(b) {
		return m, fmt.Errorf("names: %d trailing bytes", len(b)-off)
	}
	return m, nil
}
