package ipv4

import "testing"

func ecnTestHeader(tos uint8) []byte {
	h := Header{
		TOS:      tos,
		TotalLen: HeaderLen,
		ID:       0x1234,
		TTL:      17,
		Proto:    ProtoTCP,
		Src:      Addr(0x0a000001),
		Dst:      Addr(0x0a000002),
	}
	return h.MarshalStandalone()
}

// TestSetCE checks the in-place congestion mark across the ECN
// codepoints: ECT frames are rewritten to CE with the checksum patched
// incrementally (the reparse must still verify), CE is idempotent, and
// Not-ECT is refused so the gateway falls back to dropping.
func TestSetCE(t *testing.T) {
	tests := []struct {
		name    string
		tos     uint8
		want    bool
		wantECN uint8
	}{
		{"ect0", ECT0, true, CE},
		{"ect1", ECT1, true, CE},
		{"already ce", CE, true, CE},
		{"not-ect", 0x00, false, NotECT},
		{"ect0 with dscp bits", TOSLowDelay | ECT0, true, CE},
		{"ect1 with precedence", PrecCritical | ECT1, true, CE},
		{"dscp bits but not-ect", TOSHighThroughput, false, NotECT},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			raw := ecnTestHeader(tt.tos)
			if got := SetCE(raw); got != tt.want {
				t.Fatalf("SetCE = %v, want %v", got, tt.want)
			}
			// The patched header must still parse — Parse verifies the
			// checksum, so this is the RFC 1624 incremental-update check.
			h, _, err := Parse(raw)
			if err != nil {
				t.Fatalf("reparse after SetCE: %v", err)
			}
			if ECN(h.TOS) != tt.wantECN {
				t.Fatalf("ECN after SetCE = %#02x, want %#02x", ECN(h.TOS), tt.wantECN)
			}
			if h.TOS&^ECNMask != tt.tos&^ECNMask {
				t.Fatalf("SetCE disturbed non-ECN TOS bits: %#02x -> %#02x", tt.tos, h.TOS)
			}
		})
	}
}

// TestSetCEAcrossChecksumCarry sweeps every TOS value so the patched
// checksum crosses its carry boundaries; the reparse catches any RFC
// 1624 corner the fixed cases miss.
func TestSetCEAcrossChecksumCarry(t *testing.T) {
	for tos := 0; tos < 256; tos++ {
		raw := ecnTestHeader(uint8(tos))
		want := ECN(uint8(tos)) != NotECT
		if got := SetCE(raw); got != want {
			t.Fatalf("tos %#02x: SetCE = %v, want %v", tos, got, want)
		}
		if _, _, err := Parse(raw); err != nil {
			t.Fatalf("tos %#02x: reparse after SetCE: %v", tos, err)
		}
	}
}

func TestSetCETruncated(t *testing.T) {
	if SetCE(nil) || SetCE(make([]byte, HeaderLen-1)) {
		t.Fatal("SetCE accepted a truncated header")
	}
}

func TestECNHelpers(t *testing.T) {
	if ECN(TOSLowDelay|ECT0) != ECT0 {
		t.Fatal("ECN did not mask to the low bits")
	}
}
