package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the Internet checksum (RFC 1071) over data: the 16-bit
// one's complement of the one's complement sum of the 16-bit words. An odd
// trailing byte is padded with zero.
func Checksum(data []byte) uint16 {
	return FinishChecksum(PartialChecksum(0, data))
}

// PartialChecksum folds data into an ongoing one's-complement sum. Use it
// to checksum a packet in pieces (pseudo-header, header, payload), then
// call FinishChecksum. Every piece but the last must have even length for
// the fold to be associative; darpanet's pseudo-headers and headers all do.
//
// The sum is taken eight bytes at a time: a big-endian 64-bit word is
// congruent to the sum of its four 16-bit words modulo 0xffff (2¹⁶ ≡ 1),
// and the carry out of the 64-bit accumulator is added back in, which
// keeps both that congruence and the property that a non-zero sum never
// becomes zero. The result is folded to 32 bits on the same terms, so it
// finishes to the same 16 bits as a word-by-word sum would. Any incoming
// sum is valid, up to and including 0xffffffff: no carry is dropped.
func PartialChecksum(sum uint32, data []byte) uint32 {
	acc, c := uint64(sum), uint64(0)
	for len(data) >= 32 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[8:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[16:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data[24:]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), c)
		data = data[8:]
	}
	// At most seven bytes remain: below 2¹⁸ as 16-bit words, one add.
	var tail uint64
	for len(data) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		tail += uint64(data[0]) << 8
	}
	acc, c = bits.Add64(acc, tail, c)
	// A carry out of that add leaves acc no larger than tail,
	// so bringing it round cannot carry again.
	acc += c
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>32 + acc&0xffffffff
	return uint32(acc)
}

// FinishChecksum folds the 32-bit accumulator to 16 bits and complements
// it.
func FinishChecksum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// VerifyChecksum reports whether data, which includes its checksum field,
// sums to the all-ones pattern as RFC 1071 requires of a valid packet.
func VerifyChecksum(data []byte) bool {
	return FinishChecksum(PartialChecksum(0, data)) == 0
}
