package icmp

import (
	"testing"
	"testing/quick"
)

func TestMarshalParseRoundTrip(t *testing.T) {
	m := Message{Type: TypeEchoRequest, Code: 0, ID: 77, Seq: 3, Body: []byte("probe")}
	got, err := Parse(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.ID != 77 || got.Seq != 3 || string(got.Body) != "probe" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	m := Message{Type: TypeDestUnreachable, Code: CodePortUnreachable, Body: []byte("quoted")}
	raw := m.Marshal()
	raw[9] ^= 0x01
	if _, err := Parse(raw); err != ErrBad {
		t.Fatalf("err = %v, want ErrBad", err)
	}
	if _, err := Parse([]byte{1, 2, 3}); err != ErrBad {
		t.Fatal("short message accepted")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(typ, code uint8, id, seq uint16, body []byte) bool {
		m := Message{Type: typ, Code: code, ID: id, Seq: seq, Body: body}
		got, err := Parse(m.Marshal())
		if err != nil {
			return false
		}
		if got.Type != typ || got.Code != code || got.ID != id || got.Seq != seq {
			return false
		}
		if len(got.Body) != len(body) {
			return false
		}
		for i := range body {
			if got.Body[i] != body[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
