// Package icmp implements the Internet Control Message Protocol subset the
// darpanet stack uses: echo (ping), destination-unreachable and
// time-exceeded. ICMP is how failures of the stateless datagram layer are
// reported back toward the sender — the minimal error path the 1988
// architecture provides in place of in-network reliability.
package icmp

import (
	"encoding/binary"
	"errors"

	"darpanet/internal/packet"
)

// Message types.
const (
	TypeEchoReply        = 0
	TypeDestUnreachable  = 3
	TypeEchoRequest      = 8
	TypeTimeExceeded     = 11
	TypeSourceQuench     = 4 // the era's (ineffective) congestion signal
	TypeTimestampRequest = 13
	TypeTimestampReply   = 14
)

// Destination-unreachable codes.
const (
	CodeNetUnreachable   = 0
	CodeHostUnreachable  = 1
	CodeProtoUnreachable = 2
	CodePortUnreachable  = 3
	CodeFragNeeded       = 4
)

// Time-exceeded codes.
const (
	CodeTTLExceeded        = 0
	CodeReassemblyExceeded = 1
)

// HeaderLen is the fixed ICMP header length.
const HeaderLen = 8

// Message is a parsed ICMP message. For echo messages ID and Seq identify
// the probe; for error messages Body carries the offending datagram's IP
// header plus the first eight payload bytes, as RFC 792 requires.
type Message struct {
	Type, Code uint8
	ID, Seq    uint16 // echo only
	Body       []byte
}

// ErrBad is returned for malformed or corrupt messages.
var ErrBad = errors.New("icmp: bad message")

// Marshal appends the wire form of the message (header + body) to a fresh
// byte slice and returns it, checksum filled in.
func (m *Message) Marshal() []byte {
	buf := make([]byte, HeaderLen+len(m.Body))
	buf[0] = m.Type
	buf[1] = m.Code
	binary.BigEndian.PutUint16(buf[4:], m.ID)
	binary.BigEndian.PutUint16(buf[6:], m.Seq)
	copy(buf[HeaderLen:], m.Body)
	binary.BigEndian.PutUint16(buf[2:], packet.Checksum(buf))
	return buf
}

// Parse decodes and checksum-verifies an ICMP message.
func Parse(data []byte) (Message, error) {
	if len(data) < HeaderLen || !packet.VerifyChecksum(data) {
		return Message{}, ErrBad
	}
	return Message{
		Type: data[0],
		Code: data[1],
		ID:   binary.BigEndian.Uint16(data[4:]),
		Seq:  binary.BigEndian.Uint16(data[6:]),
		Body: data[HeaderLen:],
	}, nil
}
