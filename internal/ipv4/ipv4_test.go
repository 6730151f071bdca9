package ipv4

import (
	"fmt"
	"os"
	"testing"
	"testing/quick"

	"darpanet/internal/packet"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"10.0.1.2", AddrFrom4(10, 0, 1, 2), true},
		{"255.255.255.255", Broadcast, true},
		{"0.0.0.0", 0, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"1.2.3.256", 0, false},
		{"a.b.c.d", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestAddrString(t *testing.T) {
	if s := AddrFrom4(192, 168, 7, 44).String(); s != "192.168.7.44" {
		t.Fatalf("String = %q", s)
	}
}

func TestPropertyAddrRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.2.0/24")
	if !p.Contains(MustParseAddr("10.1.2.200")) {
		t.Fatal("should contain host in subnet")
	}
	if p.Contains(MustParseAddr("10.1.3.1")) {
		t.Fatal("should not contain neighbor subnet")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(Broadcast) || !all.Contains(0) {
		t.Fatal("default route should contain everything")
	}
	host := MustParsePrefix("10.1.2.3/32")
	if !host.Contains(MustParseAddr("10.1.2.3")) || host.Contains(MustParseAddr("10.1.2.4")) {
		t.Fatal("host route wrong")
	}
}

func TestPrefixNormalizesHostBits(t *testing.T) {
	p := MustParsePrefix("10.1.2.99/24")
	if p.Addr != MustParseAddr("10.1.2.0") {
		t.Fatalf("prefix addr = %v, want 10.1.2.0", p.Addr)
	}
	if p.String() != "10.1.2.0/24" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPrefixHost(t *testing.T) {
	p := MustParsePrefix("10.1.2.0/24")
	if p.Host(5) != MustParseAddr("10.1.2.5") {
		t.Fatal("Host(5) wrong")
	}
}

// TestPrefixCompare pins the one prefix order: address first, as an
// unsigned number (200.x sorts after 10.x, not before it), then length.
func TestPrefixCompare(t *testing.T) {
	sorted := []Prefix{
		MustParsePrefix("0.0.0.0/0"),
		MustParsePrefix("9.255.0.0/16"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.0.0.0/24"),
		MustParsePrefix("10.0.1.0/24"),
		MustParsePrefix("200.1.0.0/16"),
	}
	for i, p := range sorted {
		for j, q := range sorted {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := p.Compare(q); got != want {
				t.Errorf("%s.Compare(%s) = %d, want %d", p, q, got, want)
			}
		}
	}
}

func mkHeader() Header {
	return Header{
		TOS:   TOSLowDelay,
		ID:    0x1234,
		TTL:   17,
		Proto: ProtoTCP,
		Src:   MustParseAddr("10.0.0.1"),
		Dst:   MustParseAddr("10.9.9.9"),
	}
}

func TestHeaderMarshalParse(t *testing.T) {
	h := mkHeader()
	payload := []byte("hello world")
	b := packet.NewBuffer(HeaderLen, payload)
	if err := h.Marshal(b); err != nil {
		t.Fatal(err)
	}
	got, pl, err := Parse(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.Proto != h.Proto ||
		got.TTL != h.TTL || got.TOS != h.TOS || got.ID != h.ID {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
	}
	if string(pl) != "hello world" {
		t.Fatalf("payload = %q", pl)
	}
	if got.TotalLen != HeaderLen+len(payload) {
		t.Fatalf("TotalLen = %d", got.TotalLen)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	h := mkHeader()
	b := packet.NewBuffer(HeaderLen, []byte("data"))
	h.Marshal(b)
	raw := b.Bytes()

	bad := packet.Clone(raw)
	bad[12] ^= 0x40 // flip a src-address bit
	if _, _, err := Parse(bad); err != ErrBadChecksum {
		t.Fatalf("corrupt header err = %v, want ErrBadChecksum", err)
	}

	short := raw[:10]
	if _, _, err := Parse(short); err != ErrTruncated {
		t.Fatalf("short err = %v, want ErrTruncated", err)
	}

	v6 := packet.Clone(raw)
	v6[0] = 0x65
	if _, _, err := Parse(v6); err != ErrBadVersion {
		t.Fatalf("version err = %v, want ErrBadVersion", err)
	}

	trunc := packet.Clone(raw)[:HeaderLen+2] // total length says more
	if _, _, err := Parse(trunc); err != ErrBadLength {
		t.Fatalf("truncated payload err = %v, want ErrBadLength", err)
	}
}

func TestDecrementTTL(t *testing.T) {
	h := mkHeader()
	b := packet.NewBuffer(HeaderLen, []byte("x"))
	h.Marshal(b)
	raw := b.Bytes()
	// Decrement 17 -> 1; each step keeps the checksum valid and the
	// datagram forwardable (resulting TTL > 0).
	for i := 16; i >= 1; i-- {
		if !DecrementTTL(raw) {
			t.Fatalf("DecrementTTL failed with result ttl=%d", i)
		}
		got, _, err := Parse(raw)
		if err != nil {
			t.Fatalf("checksum broken after decrement at ttl=%d: %v", i, err)
		}
		if int(got.TTL) != i {
			t.Fatalf("TTL = %d, want %d", got.TTL, i)
		}
	}
	// 1 -> 0: no longer forwardable.
	if DecrementTTL(raw) {
		t.Fatal("decrementing TTL 1 should report not-forwardable")
	}
	got, _, err := Parse(raw)
	if err != nil {
		t.Fatalf("checksum broken at ttl=0: %v", err)
	}
	if got.TTL != 0 {
		t.Fatalf("TTL = %d, want 0", got.TTL)
	}
	// TTL 0: refuses to go further.
	if DecrementTTL(raw) {
		t.Fatal("decrementing TTL 0 should fail")
	}
}

func TestMarshalStandaloneQuotedRoundTrip(t *testing.T) {
	h := mkHeader()
	h.TotalLen = 999 // original datagram length, not quote length
	raw := h.MarshalStandalone()
	got, rest, err := ParseQuoted(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalLen != 999 || got.Src != h.Src || got.Dst != h.Dst {
		t.Fatalf("quoted round trip mismatch: %+v", got)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes", len(rest))
	}
	// Regular Parse must reject it (length exceeds quote).
	if _, _, err := Parse(raw); err == nil {
		t.Fatal("Parse accepted quoted header with bogus length")
	}
}

// TestPseudoSumVector: testdata/pseudo_header.txt is the one
// pseudo-header vector, which the tcp and udp tests read too — source,
// destination, transport length, and the folded sum under protocol 6
// and under 17 — summed by hand: 0a00 + 0001 + 0a00 + 0002 + 0018 is
// 141b, plus 0006 or 0011.
func TestPseudoSumVector(t *testing.T) {
	raw, err := os.ReadFile("testdata/pseudo_header.txt")
	if err != nil {
		t.Fatal(err)
	}
	var src, dst string
	var length, tcpSum, udpSum uint16
	if _, err := fmt.Sscanf(string(raw), "%s %s %d %x %x", &src, &dst, &length, &tcpSum, &udpSum); err != nil {
		t.Fatal(err)
	}
	for proto, want := range map[uint8]uint16{ProtoTCP: tcpSum, ProtoUDP: udpSum} {
		sum := PseudoSum(MustParseAddr(src), MustParseAddr(dst), proto, length)
		if got := ^packet.FinishChecksum(sum); got != want {
			t.Errorf("protocol %d: pseudo-header sums to %#04x, want %#04x", proto, got, want)
		}
	}
}

func TestEndpointString(t *testing.T) {
	e := Endpoint{Addr: MustParseAddr("10.0.0.9"), Port: 53}
	if e.String() != "10.0.0.9:53" {
		t.Fatalf("String = %q", e.String())
	}
}

func TestPrecedence(t *testing.T) {
	if Precedence(PrecNetControl) != 7 {
		t.Fatalf("net control precedence = %d", Precedence(PrecNetControl))
	}
	if Precedence(PrecCritical) != 5 {
		t.Fatalf("critical precedence = %d", Precedence(PrecCritical))
	}
	if Precedence(TOSLowDelay) != 0 {
		t.Fatalf("low delay has no precedence, got %d", Precedence(TOSLowDelay))
	}
}

func TestPropertyHeaderRoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, proto uint8, src, dst uint32, n uint8) bool {
		if ttl == 0 {
			ttl = 1
		}
		h := Header{TOS: tos, ID: id, TTL: ttl, Proto: proto, Src: Addr(src), Dst: Addr(dst)}
		b := packet.NewBuffer(HeaderLen, make([]byte, int(n)))
		if err := h.Marshal(b); err != nil {
			return false
		}
		got, pl, err := Parse(b.Bytes())
		return err == nil && got.TOS == tos && got.ID == id && got.TTL == ttl &&
			got.Proto == proto && got.Src == Addr(src) && got.Dst == Addr(dst) &&
			len(pl) == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
