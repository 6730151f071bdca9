package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refPartialChecksum is the two-bytes-per-step loop PartialChecksum used
// to be, kept verbatim as the oracle every checksum on the wire must
// still equal. Its uint32 accumulator has no carry, so it is only right
// while sum plus 0xffff per word stays below 2³² — true of every input
// the tests below hand it.
func refPartialChecksum(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

// checkAgainstRef compares the two after FinishChecksum: the accumulators
// themselves differ (one is pre-folded), the 16 bits on the wire may not.
func checkAgainstRef(t *testing.T, sum uint32, data []byte) {
	t.Helper()
	got, want := FinishChecksum(PartialChecksum(sum, data)), FinishChecksum(refPartialChecksum(sum, data))
	if got != want {
		t.Fatalf("sum=%#x len=%d: checksum %#04x, reference %#04x", sum, len(data), got, want)
	}
}

// TestChecksumMatchesReference sweeps every length 0–1600 — each residue
// of the 32-byte body, the 8-byte loop and the tail, odd and even — over
// all-ones, all-zero and random bytes, with and without an incoming sum.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	random := make([]byte, 1600)
	rng.Read(random)
	for _, fill := range [][]byte{bytes.Repeat([]byte{0xff}, 1600), make([]byte, 1600), random} {
		for n := 0; n <= len(fill); n++ {
			checkAgainstRef(t, 0, fill[:n])
			checkAgainstRef(t, rng.Uint32()>>8, fill[len(fill)-n:])
		}
	}
}

// TestPartialChecksumKeepsIncomingCarry pins the case the 16-bit loop got
// wrong: an incoming sum so close to 2³² that adding one word overflows
// the accumulator. 0xfffffff0 folds to 0xfff0 and 0xffff is one's-
// complement zero, so the sum is 0xfff0 and the checksum 0x000f; dropping
// the carry (the reference does) yields 0x0010.
func TestPartialChecksumKeepsIncomingCarry(t *testing.T) {
	const sum = 0xffff_fff0
	data := []byte{0xff, 0xff}
	if got := FinishChecksum(PartialChecksum(sum, data)); got != 0x000f {
		t.Fatalf("checksum %#04x, want 0x000f", got)
	}
	// All ones in, all ones added: still (negative) zero, checksum 0.
	if got := FinishChecksum(PartialChecksum(0xffff_ffff, bytes.Repeat(data, 64))); got != 0 {
		t.Fatalf("all-ones sum over all-ones data: checksum %#04x, want 0", got)
	}
}

// FuzzChecksumMatchesReference is the differential fuzzer: lengths up to
// 1600 and incoming sums below 2²⁴ keep the reference inside its range.
func FuzzChecksumMatchesReference(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0), []byte{0x12})
	f.Add(uint32(0xffffff), bytes.Repeat([]byte{0xff}, 1599))
	f.Add(uint32(1), make([]byte, 1600))
	f.Add(uint32(0x1234), []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7, 0x45})
	f.Fuzz(func(t *testing.T, sum uint32, data []byte) {
		checkAgainstRef(t, sum&0xffffff, data[:min(len(data), 1600)])
	})
}
