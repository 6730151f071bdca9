package trace

import (
	"strings"
	"testing"
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/packet"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
)

// tapPair builds two hosts on a LAN with a trace buffer tapping host a.
func tapPair(t *testing.T) (*sim.Kernel, *stack.Node, *stack.Node, *Buffer) {
	t.Helper()
	k := sim.NewKernel(1)
	lan := phys.NewBus(k, "lan", phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	net := ipv4.MustParsePrefix("10.0.0.0/24")
	a := stack.NewNode(k, "a")
	b := stack.NewNode(k, "b")
	ia := a.AttachInterface(lan, net.Host(1), net)
	ib := b.AttachInterface(lan, net.Host(2), net)
	ia.AddNeighbor(ib.Addr, ib.NIC.Addr())
	ib.AddNeighbor(ia.Addr, ia.NIC.Addr())
	buf := &Buffer{}
	a.SetPacketTap(func(send bool, iface string, raw []byte) {
		dir := Recv
		if send {
			dir = Send
		}
		buf.Add(Event{At: k.Now(), Node: "a", Dir: dir, Iface: iface, Raw: append([]byte(nil), raw...)})
	})
	return k, a, b, buf
}

func TestTCPHandshakeTrace(t *testing.T) {
	k, a, b, buf := tapPair(t)
	ta, tb := tcp.New(a), tcp.New(b)
	tb.Listen(80, tcp.Options{}, func(c *tcp.Conn) {})
	c, _ := ta.Dial(tcp.Endpoint{Addr: b.Addr(), Port: 80}, tcp.Options{})
	_ = c
	k.RunFor(time.Second)
	out := buf.String()
	if !strings.Contains(out, "Flags [S]") {
		t.Fatalf("no SYN in trace:\n%s", out)
	}
	if !strings.Contains(out, "Flags [S.]") {
		t.Fatalf("no SYN-ACK in trace:\n%s", out)
	}
	if !strings.Contains(out, ".80: ") || !strings.Contains(out, "10.0.0.2") {
		t.Fatalf("endpoints missing:\n%s", out)
	}
}

func TestUDPAndICMPTrace(t *testing.T) {
	k, a, b, buf := tapPair(t)
	ua := udp.New(a)
	udp.New(b)
	s, _ := ua.Listen(0, nil)
	s.SendTo(udp.Endpoint{Addr: b.Addr(), Port: 999}, []byte("hi"))
	a.Ping(b.Addr(), 1, time.Millisecond, nil)
	k.RunFor(time.Second)
	out := buf.String()
	if !strings.Contains(out, "UDP, length 2") {
		t.Fatalf("no UDP line:\n%s", out)
	}
	// Port 999 is closed: a port unreachable comes back.
	if !strings.Contains(out, "destination unreachable (port)") {
		t.Fatalf("no unreachable line:\n%s", out)
	}
	if !strings.Contains(out, "echo request") || !strings.Contains(out, "echo reply") {
		t.Fatalf("no echo lines:\n%s", out)
	}
}

func TestDirectionMarkers(t *testing.T) {
	k, a, b, buf := tapPair(t)
	a.Ping(b.Addr(), 1, time.Millisecond, nil)
	k.RunFor(time.Second)
	var sends, recvs int
	for _, e := range buf.Events {
		if e.Dir == Send {
			sends++
		} else {
			recvs++
		}
	}
	if sends == 0 || recvs == 0 {
		t.Fatalf("sends=%d recvs=%d", sends, recvs)
	}
}

func TestMalformedAndTruncated(t *testing.T) {
	e := Event{Node: "x", Iface: "if0", Raw: []byte{1, 2, 3}}
	if !strings.Contains(Format(e), "malformed") {
		t.Fatal("malformed not flagged")
	}
}

func TestFragmentLine(t *testing.T) {
	h := ipv4.Header{ID: 9, TTL: 5, Proto: ipv4.ProtoUDP,
		Src: ipv4.MustParseAddr("1.1.1.1"), Dst: ipv4.MustParseAddr("2.2.2.2"),
		MF: true, FragOff: 0}
	hs, ps, _ := ipv4.Fragment(h, make([]byte, 100), 1500)
	_ = ps
	hs[0].MF = true
	raw := buildRaw(t, hs[0], ps[0])
	out := Format(Event{Raw: raw})
	if !strings.Contains(out, "frag id=9") {
		t.Fatalf("fragment line: %s", out)
	}
}

func buildRaw(t *testing.T, h ipv4.Header, payload []byte) []byte {
	t.Helper()
	b := newBufferWith(payload)
	if err := h.Marshal(b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestBufferLimit(t *testing.T) {
	tb := &Buffer{Limit: 3}
	for i := 0; i < 10; i++ {
		tb.Add(Event{Node: "n"})
	}
	if len(tb.Events) != 3 {
		t.Fatalf("len = %d, want 3", len(tb.Events))
	}
}

func TestTTLAndTOSAnnotations(t *testing.T) {
	h := ipv4.Header{TTL: 2, TOS: 0x10, Proto: 200,
		Src: ipv4.MustParseAddr("1.1.1.1"), Dst: ipv4.MustParseAddr("2.2.2.2")}
	raw := buildRaw(t, h, nil)
	out := Format(Event{Raw: raw})
	if !strings.Contains(out, "[ttl 2]") || !strings.Contains(out, "[low-delay]") {
		t.Fatalf("annotations missing: %s", out)
	}
}

// TestTOSSymbolic walks every precedence level and the service bits
// through the symbolic renderer.
func TestTOSSymbolic(t *testing.T) {
	cases := []struct {
		tos  uint8
		want string
	}{
		{0x20, "priority"},
		{0x40, "immediate"},
		{0x60, "flash"},
		{0x80, "flash-override"},
		{0xa0, "critical"},
		{0xc0, "internetwork-control"},
		{0xe0, "net-control"},
		{ipv4.TOSLowDelay, "low-delay"},
		{ipv4.TOSHighThroughput, "high-throughput"},
		{ipv4.TOSHighReliab, "high-reliability"},
		{ipv4.PrecCritical | ipv4.TOSLowDelay, "critical,low-delay"},
		{0x40 | ipv4.TOSLowDelay | ipv4.TOSHighThroughput, "immediate,low-delay,high-throughput"},
		{0x23, "tos 0x23"}, // unknown low bits: hex fallback
	}
	for _, c := range cases {
		if got := formatTOS(c.tos); got != c.want {
			t.Errorf("formatTOS(%#02x) = %q, want %q", c.tos, got, c.want)
		}
	}
	// A routine-precedence, no-bits octet is never annotated at all.
	h := ipv4.Header{TTL: 64, TOS: 0, Proto: 200,
		Src: ipv4.MustParseAddr("1.1.1.1"), Dst: ipv4.MustParseAddr("2.2.2.2")}
	if out := Format(Event{Raw: buildRaw(t, h, nil)}); strings.Contains(out, "[tos") || strings.Contains(out, "routine") {
		t.Fatalf("TOS 0 must not be annotated: %s", out)
	}
}

// newBufferWith returns a buffer with room for an IP header in front of
// a copy of payload, for the raw-building helper.
func newBufferWith(payload []byte) *packet.Buffer {
	b := new(packet.Buffer)
	b.Reset(nil, ipv4.HeaderLen, payload)
	return b
}
