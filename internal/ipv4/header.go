package ipv4

import (
	"encoding/binary"
	"errors"
	"fmt"

	"darpanet/internal/packet"
)

// Protocol numbers carried in the IP header's protocol field. NVP really
// was IP protocol 11 in the assigned-numbers registry of the era; XNET,
// the cross-net debugger the paper cites as one of the seven original
// services, was protocol 14.
const (
	ProtoICMP = 1
	ProtoNVP  = 11
	ProtoXNET = 14
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// HeaderLen is the length of an IP header without options. darpanet does
// not emit options, matching the dominant practice the paper describes.
const HeaderLen = 20

// MaxTotalLen is the largest datagram the 16-bit total-length field can
// describe.
const MaxTotalLen = 65535

// DefaultTTL is the initial time-to-live for locally originated datagrams.
const DefaultTTL = 64

// Type-of-service values. The paper's second goal is that the architecture
// support multiple types of service "distinguished by differing
// requirements for speed, latency and reliability"; the ToS octet is the
// hook IP gives gateways to tell them apart without knowing the
// application. Precedence occupies the top three bits; gateways with
// priority queueing enabled serve higher precedence first.
const (
	TOSRoutine        uint8 = 0x00
	TOSLowDelay       uint8 = 0x10 // D bit: interactive / voice
	TOSHighThroughput uint8 = 0x08 // T bit: bulk transfer
	TOSHighReliab     uint8 = 0x04 // R bit
	PrecNetControl    uint8 = 0xe0 // routing traffic
	PrecCritical      uint8 = 0xa0 // voice
)

// Precedence extracts the 3-bit precedence from a ToS octet.
func Precedence(tos uint8) int { return int(tos >> 5) }

// Header is a parsed IP header.
type Header struct {
	TOS      uint8
	TotalLen int // header + payload bytes; filled by Marshal
	ID       uint16
	DF       bool // don't fragment
	MF       bool // more fragments follow
	FragOff  int  // payload offset of this fragment, in bytes (multiple of 8)
	TTL      uint8
	Proto    uint8
	Src, Dst Addr
}

// Errors returned by Parse.
var (
	ErrTruncated   = errors.New("ipv4: truncated datagram")
	ErrBadVersion  = errors.New("ipv4: not version 4")
	ErrBadChecksum = errors.New("ipv4: header checksum mismatch")
	ErrBadLength   = errors.New("ipv4: bad total length")
	ErrTooBig      = errors.New("ipv4: datagram exceeds 65535 bytes")
)

// Marshal prepends the header to the payload already in b, computing the
// total length and header checksum.
func (h *Header) Marshal(b *packet.Buffer) error {
	total := HeaderLen + b.Len()
	if total > MaxTotalLen {
		return ErrTooBig
	}
	h.TotalLen = total
	h.encode(b.Prepend(HeaderLen))
	return nil
}

// MarshalStandalone serializes just the header, with TotalLen exactly as
// given, computing the checksum. It is used to quote a datagram's header
// inside an ICMP error body.
func (h *Header) MarshalStandalone() []byte {
	hdr := make([]byte, HeaderLen)
	h.encode(hdr)
	return hdr
}

// encode writes the header's twenty bytes into hdr, TotalLen as it
// stands, and fills in the checksum.
func (h *Header) encode(hdr []byte) {
	hdr[0] = 0x45 // version 4, IHL 5
	hdr[1] = h.TOS
	binary.BigEndian.PutUint16(hdr[2:], uint16(h.TotalLen))
	binary.BigEndian.PutUint16(hdr[4:], h.ID)
	ff := uint16(h.FragOff / 8)
	if h.DF {
		ff |= 0x4000
	}
	if h.MF {
		ff |= 0x2000
	}
	binary.BigEndian.PutUint16(hdr[6:], ff)
	hdr[8] = h.TTL
	hdr[9] = h.Proto
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint32(hdr[12:], uint32(h.Src))
	binary.BigEndian.PutUint32(hdr[16:], uint32(h.Dst))
	binary.BigEndian.PutUint16(hdr[10:], packet.Checksum(hdr))
}

// ParseQuoted parses a header quoted inside an ICMP error body. The
// checksum is verified but the total length is not compared against the
// quote, which deliberately truncates the original datagram.
func ParseQuoted(data []byte) (h Header, rest []byte, err error) {
	ihl, err := h.decode(data)
	if err != nil {
		return Header{}, nil, err
	}
	return h, data[ihl:], nil
}

// Parse decodes the header at the front of data and returns it along with
// the payload. It verifies version, length and header checksum.
func Parse(data []byte) (h Header, payload []byte, err error) {
	ihl, err := h.decode(data)
	if err != nil {
		return Header{}, nil, err
	}
	if h.TotalLen < ihl || h.TotalLen > len(data) {
		return Header{}, nil, ErrBadLength
	}
	return h, data[ihl:h.TotalLen], nil
}

// decode verifies the version, header length and checksum of the header
// at the front of data and stores its fields into h, returning the
// header's length in bytes. It is a method on the caller's named result
// rather than a function returning a Header: the forwarding path parses
// every frame at every hop, and a Header returned through a helper is
// copied once more on the way out (the stall stack/route.go records for
// Lookup).
func (h *Header) decode(data []byte) (ihl int, err error) {
	if len(data) < HeaderLen {
		return 0, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return 0, ErrBadVersion
	}
	ihl = int(data[0]&0x0f) * 4
	if ihl < HeaderLen || len(data) < ihl {
		return 0, ErrTruncated
	}
	if !packet.VerifyChecksum(data[:ihl]) {
		return 0, ErrBadChecksum
	}
	ff := binary.BigEndian.Uint16(data[6:])
	h.TOS = data[1]
	h.TotalLen = int(binary.BigEndian.Uint16(data[2:]))
	h.ID = binary.BigEndian.Uint16(data[4:])
	h.DF = ff&0x4000 != 0
	h.MF = ff&0x2000 != 0
	h.FragOff = int(ff&0x1fff) * 8
	h.TTL = data[8]
	h.Proto = data[9]
	h.Src = Addr(binary.BigEndian.Uint32(data[12:]))
	h.Dst = Addr(binary.BigEndian.Uint32(data[16:]))
	return ihl, nil
}

// PseudoSum starts a transport checksum with the pseudo-header TCP and
// UDP both prepend to what they sum: the datagram's addresses, its
// protocol number and the transport length (header plus data). The
// result feeds packet.PartialChecksum over the segment itself.
func PseudoSum(src, dst Addr, proto uint8, length uint16) uint32 {
	var ph [12]byte
	binary.BigEndian.PutUint32(ph[0:], uint32(src))
	binary.BigEndian.PutUint32(ph[4:], uint32(dst))
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:], length)
	return packet.PartialChecksum(0, ph[:])
}

// DecrementTTL rewrites the TTL and checksum of the raw header in place,
// as a gateway does when forwarding. It reports whether the datagram may
// still be forwarded (TTL remained positive).
//
// The incremental update follows RFC 1141: when TTL decreases by one, the
// checksum can be patched without re-summing the header.
func DecrementTTL(raw []byte) bool {
	if len(raw) < HeaderLen || raw[8] == 0 {
		return false
	}
	raw[8]--
	sum := uint32(binary.BigEndian.Uint16(raw[10:])) + 0x0100
	sum += sum >> 16
	binary.BigEndian.PutUint16(raw[10:], uint16(sum))
	return raw[8] != 0
}

// String formats the header compactly for traces.
func (h Header) String() string {
	frag := ""
	if h.MF || h.FragOff > 0 {
		frag = fmt.Sprintf(" frag(off=%d,mf=%v)", h.FragOff, h.MF)
	}
	return fmt.Sprintf("%s > %s proto=%d ttl=%d tos=%#02x len=%d id=%d%s",
		h.Src, h.Dst, h.Proto, h.TTL, h.TOS, h.TotalLen, h.ID, frag)
}
