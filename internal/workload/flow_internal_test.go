package workload

import "testing"

// TestBulkReceiverCountsMismatchedBytes feeds the bulk receiver's check
// chunks that straddle the pattern's period, one intact and one with
// three bytes flipped, and sees only the flipped ones counted.
func TestBulkReceiverCountsMismatchedBytes(t *testing.T) {
	f := &Flow{BytesRx: patternPeriod - 100}
	chunk := append(append([]byte(nil), PatternChunk(f.BytesRx, 100)...), PatternChunk(0, 400)...)
	f.check(chunk)
	if f.Mismatched != 0 {
		t.Fatalf("an intact chunk across the period counted %d mismatched bytes", f.Mismatched)
	}
	for _, i := range []int{0, 99, 100} {
		chunk[i] ^= 0xff
	}
	f.check(chunk)
	if f.Mismatched != 3 {
		t.Fatalf("three corrupted bytes counted as %d", f.Mismatched)
	}
}
