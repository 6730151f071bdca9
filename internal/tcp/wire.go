// Package tcp implements the Transmission Control Protocol.
//
// TCP is where the 1988 paper's architecture puts everything the network
// refuses to do: reliability, ordering, flow control, and (in its
// post-1988 form) congestion control all live in the endpoints, so that
// gateways can stay stateless and the conversation shares fate only with
// the hosts that care about it. The implementation keeps the specific
// design decisions the paper defends:
//
//   - Sequence numbers count bytes, not packets, so a sender may
//     repacketize on retransmission — combining small unacknowledged
//     segments into one larger one (Options.Repacketize toggles this for
//     the ablation experiment).
//   - EOL became PSH: the receiver may be told data should be pushed
//     through, but no record boundary is enforced.
//   - Flow control is expressed in bytes via the window field.
//
// Congestion control (slow start, AIMD, fast retransmit) is the
// contemporaneous Van Jacobson addition; it is a per-connection option so
// the experiments can measure the architecture with and without it.
package tcp

import (
	"encoding/binary"
	"errors"

	"darpanet/internal/ipv4"
	"darpanet/internal/packet"
)

// HeaderLen is the TCP header length without options.
const HeaderLen = 20

// Header flags. ECE and CWR occupy the two reserved bits RFC 3168
// claimed for the ECN echo loop.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagRST = 1 << 2
	flagPSH = 1 << 3
	flagACK = 1 << 4
	flagURG = 1 << 5
	flagECE = 1 << 6
	flagCWR = 1 << 7
)

// Endpoint is a TCP address: host and port.
type Endpoint = ipv4.Endpoint

// segment is a parsed TCP segment.
type segment struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            uint8
	wnd              uint16
	mss              uint16 // from the MSS option; 0 when absent
	payload          []byte
	// ce is not wire state: the demultiplexer sets it from the IP
	// header's ECN field so segmentArrives sees the gateway's mark.
	ce bool
}

func (s *segment) fin() bool    { return s.flags&flagFIN != 0 }
func (s *segment) syn() bool    { return s.flags&flagSYN != 0 }
func (s *segment) rst() bool    { return s.flags&flagRST != 0 }
func (s *segment) hasACK() bool { return s.flags&flagACK != 0 }

// segLen is the sequence space the segment occupies (payload + SYN + FIN).
func (s *segment) segLen() int {
	n := len(s.payload)
	if s.syn() {
		n++
	}
	if s.fin() {
		n++
	}
	return n
}

// marshalInto serializes the segment into scratch, growing it as needed
// and reusing its capacity across calls. The returned slice aliases
// scratch and is only valid until the next call — safe here because the
// IP layer copies the wire image into its own buffer before returning
// from Send, so the transport serializes every segment through one
// scratch without allocating.
func (s *segment) marshalInto(scratch *[]byte, src, dst ipv4.Addr) []byte {
	optLen := 0
	if s.mss != 0 {
		optLen = 4
	}
	total := HeaderLen + optLen + len(s.payload)
	b := *scratch
	if cap(b) < total {
		b = make([]byte, total)
		*scratch = b
	}
	b = b[:total]
	hdr := b
	binary.BigEndian.PutUint16(hdr[0:], s.srcPort)
	binary.BigEndian.PutUint16(hdr[2:], s.dstPort)
	binary.BigEndian.PutUint32(hdr[4:], s.seq)
	binary.BigEndian.PutUint32(hdr[8:], s.ack)
	hdr[12] = uint8((HeaderLen + optLen) / 4 << 4)
	hdr[13] = s.flags
	binary.BigEndian.PutUint16(hdr[14:], s.wnd)
	binary.BigEndian.PutUint16(hdr[16:], 0) // checksum, filled below
	binary.BigEndian.PutUint16(hdr[18:], 0) // urgent pointer
	if s.mss != 0 {
		hdr[20] = 2 // kind: MSS
		hdr[21] = 4 // length
		binary.BigEndian.PutUint16(hdr[22:], s.mss)
	}
	copy(b[HeaderLen+optLen:], s.payload)
	sum := ipv4.PseudoSum(src, dst, ipv4.ProtoTCP, uint16(total))
	sum = packet.PartialChecksum(sum, b)
	binary.BigEndian.PutUint16(hdr[16:], packet.FinishChecksum(sum))
	return b
}

var errBadSegment = errors.New("tcp: malformed segment")

// parseSegment decodes and checksum-verifies a segment received between
// src and dst.
func parseSegment(src, dst ipv4.Addr, data []byte) (segment, error) {
	if len(data) < HeaderLen {
		return segment{}, errBadSegment
	}
	off := int(data[12]>>4) * 4
	if off < HeaderLen || off > len(data) {
		return segment{}, errBadSegment
	}
	sum := ipv4.PseudoSum(src, dst, ipv4.ProtoTCP, uint16(len(data)))
	sum = packet.PartialChecksum(sum, data)
	if packet.FinishChecksum(sum) != 0 {
		return segment{}, errBadSegment
	}
	s := segment{
		srcPort: binary.BigEndian.Uint16(data[0:]),
		dstPort: binary.BigEndian.Uint16(data[2:]),
		seq:     binary.BigEndian.Uint32(data[4:]),
		ack:     binary.BigEndian.Uint32(data[8:]),
		flags:   data[13],
		wnd:     binary.BigEndian.Uint16(data[14:]),
		payload: data[off:],
	}
	// Walk options (only MSS is understood; others are skipped).
	opts := data[HeaderLen:off]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // nop
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return segment{}, errBadSegment
			}
			if opts[0] == 2 && opts[1] == 4 {
				s.mss = binary.BigEndian.Uint16(opts[2:])
			}
			opts = opts[opts[1]:]
		}
	}
	return s, nil
}

// Sequence-space arithmetic: all comparisons are modulo 2^32.

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }
