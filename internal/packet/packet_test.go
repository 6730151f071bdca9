package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// newBuffer returns a buffer with headroom bytes of headers in front of
// a copy of payload.
func newBuffer(headroom int, payload []byte) *Buffer {
	b := new(Buffer)
	b.Reset(nil, headroom, payload)
	return b
}

func TestBufferPrepend(t *testing.T) {
	b := newBuffer(8, []byte("payload"))
	copy(b.Prepend(4), "hdr:")
	if got := string(b.Bytes()); got != "hdr:payload" {
		t.Fatalf("Bytes = %q", got)
	}
	if b.Len() != 11 {
		t.Fatalf("Len = %d, want 11", b.Len())
	}
}

func TestBufferPrependBeyondHeadroom(t *testing.T) {
	b := newBuffer(2, []byte("xy"))
	copy(b.Prepend(10), "0123456789")
	if got := string(b.Bytes()); got != "0123456789xy" {
		t.Fatalf("Bytes = %q", got)
	}
	// And again, to exercise repeated growth.
	copy(b.Prepend(20), bytes.Repeat([]byte("a"), 20))
	if b.Len() != 32 {
		t.Fatalf("Len = %d, want 32", b.Len())
	}
}

func TestBufferZeroValue(t *testing.T) {
	var b Buffer
	copy(b.Prepend(3), "xyz")
	if got := string(b.Bytes()); got != "xyz" {
		t.Fatalf("Bytes = %q", got)
	}
}

// TestChecksumRFC1071Example checks the worked example from RFC 1071 §3.
func TestChecksumRFC1071Example(t *testing.T) {
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	// Sum = 0x00 01 + 0xf2 03 + 0xf4 f5 + 0xf6 f7 = 0x2ddf0 -> 0xddf2, ^= 0x220d
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd final byte is padded with zero on the right.
	if Checksum([]byte{0x12}) != ^uint16(0x1200) {
		t.Fatal("odd-length checksum wrong")
	}
}

func TestVerifyChecksum(t *testing.T) {
	data := make([]byte, 20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	data[10], data[11] = 0, 0
	ck := Checksum(data)
	binary.BigEndian.PutUint16(data[10:], ck)
	if !VerifyChecksum(data) {
		t.Fatal("valid checksum did not verify")
	}
	data[3] ^= 0xff
	if VerifyChecksum(data) {
		t.Fatal("corrupted data verified")
	}
}

// Property: inserting the computed checksum always verifies, for any
// even-length data.
func TestPropertyChecksumRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		data[0], data[1] = 0, 0
		ck := Checksum(data)
		binary.BigEndian.PutUint16(data[0:], ck)
		return VerifyChecksum(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PartialChecksum over split even-length chunks equals Checksum
// over the whole.
func TestPropertyChecksumAssociative(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = a[:len(a)-1]
		}
		whole := append(append([]byte{}, a...), b...)
		split := FinishChecksum(PartialChecksum(PartialChecksum(0, a), b))
		return Checksum(whole) == split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumAllZeros(t *testing.T) {
	if Checksum(make([]byte, 8)) != 0xffff {
		t.Fatal("all-zero checksum should be 0xffff")
	}
}
