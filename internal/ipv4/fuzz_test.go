package ipv4

import (
	"bytes"
	"testing"
)

// FuzzIPv4HeaderRoundTrip: any datagram Parse accepts must survive a
// re-marshal/re-parse cycle with every header field intact. Parse
// tolerates IHL > 5 (options are skipped) while the marshaller always
// emits a bare 20-byte header, so the round trip also proves the
// parsed struct carries everything the stack relies on. ParseQuoted
// shares Parse's decoder and is held to it on the way.
func FuzzIPv4HeaderRoundTrip(f *testing.F) {
	// Valid headers as seeds: a plain datagram, a DF probe, a middle
	// fragment, and a quoted ICMP-style header.
	for _, h := range []Header{
		{TOS: 0, TotalLen: 28, ID: 1, TTL: 64, Proto: 17, Src: MustParseAddr("10.0.1.1"), Dst: MustParseAddr("10.0.2.1")},
		{TOS: 0xb8, TotalLen: 20, ID: 7, DF: true, TTL: 1, Proto: 6, Src: MustParseAddr("192.168.0.9"), Dst: MustParseAddr("10.9.0.1")},
		{TOS: 0, TotalLen: 36, ID: 99, MF: true, FragOff: 1480, TTL: 3, Proto: 1, Src: MustParseAddr("10.1.0.2"), Dst: MustParseAddr("10.3.0.2")},
	} {
		wire := h.MarshalStandalone()
		pad := make([]byte, h.TotalLen-HeaderLen)
		f.Add(append(wire, pad...))
	}
	f.Add([]byte{0x45, 0, 0, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := Parse(data)
		if err != nil {
			return // malformed input rejected: nothing to round-trip
		}
		if h.TotalLen < HeaderLen || h.TotalLen > len(data) {
			t.Fatalf("Parse accepted TotalLen %d for %d bytes", h.TotalLen, len(data))
		}
		if h.FragOff%8 != 0 {
			t.Fatalf("Parse produced unaligned FragOff %d", h.FragOff)
		}
		// An ICMP error quotes the header and eight payload bytes: the
		// one decoder reads the same header out of the quote, though the
		// total length now overruns it.
		ihl := h.TotalLen - len(payload)
		quote := data[:min(ihl+8, len(data))]
		if hq, rest, err := ParseQuoted(quote); err != nil || hq != h || !bytes.Equal(rest, quote[ihl:]) {
			t.Fatalf("ParseQuoted over header + 8 bytes: %+v, %d bytes left, err %v; Parse read %+v", hq, len(rest), err, h)
		}
		wire := h.MarshalStandalone()
		h2, rest, err := ParseQuoted(wire)
		if err != nil {
			t.Fatalf("re-parse of re-marshalled header: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("re-parse left %d bytes", len(rest))
		}
		if h2 != h {
			t.Fatalf("header changed across round trip:\n  parsed    %+v\n  reparsed  %+v", h, h2)
		}
	})
}
