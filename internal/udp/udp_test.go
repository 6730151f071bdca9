package udp

import (
	"encoding/binary"
	"fmt"
	"os"
	"testing"
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/packet"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// pair builds two hosts on one LAN with UDP transports.
func pair(t *testing.T) (*sim.Kernel, *Transport, *Transport) {
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
	return k, New(a), New(b)
}

func TestSendReceive(t *testing.T) {
	k, ta, tb := pair(t)
	var got []byte
	var from Endpoint
	sb, err := tb.Listen(9000, func(f Endpoint, data []byte, h ipv4.Header) {
		from, got = f, append(got[:0], data...) // data is pooled; copy to retain
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sa, _ := ta.Listen(0, nil)
	if err := sa.SendTo(Endpoint{Addr: tb.Node().Addr(), Port: 9000}, []byte("ping!")); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Second)
	if string(got) != "ping!" {
		t.Fatalf("got %q", got)
	}
	if from.Addr != ta.Node().Addr() || from.Port != sa.Port() {
		t.Fatalf("from = %v", from)
	}
	if tb.Stats().InDatagrams != 1 || ta.Stats().OutDatagrams != 1 {
		t.Fatal("stats wrong")
	}
}

func TestPortInUse(t *testing.T) {
	_, ta, _ := pair(t)
	s1, err := ta.Listen(500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Listen(500, nil); err != ErrPortInUse {
		t.Fatalf("err = %v, want ErrPortInUse", err)
	}
	s1.Close()
	if _, err := ta.Listen(500, nil); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	_, ta, _ := pair(t)
	seen := make(map[uint16]bool)
	for i := 0; i < 100; i++ {
		s, err := ta.Listen(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.Port()] {
			t.Fatalf("duplicate ephemeral port %d", s.Port())
		}
		seen[s.Port()] = true
	}
}

func TestPortUnreachable(t *testing.T) {
	k, ta, tb := pair(t)
	errs := 0
	ta.Node().OnIcmpError(func(e stack.IcmpError) { errs++ })
	sa, _ := ta.Listen(0, nil)
	sa.SendTo(Endpoint{Addr: tb.Node().Addr(), Port: 4242}, []byte("anyone?"))
	k.RunFor(time.Second)
	if errs != 1 {
		t.Fatalf("icmp errors = %d, want 1 (port unreachable)", errs)
	}
	if tb.Stats().NoPorts != 1 {
		t.Fatal("NoPorts not counted")
	}
}

func TestChecksumRejectsCorruption(t *testing.T) {
	_, ta, tb := pair(t)
	got := 0
	tb.Listen(9000, func(Endpoint, []byte, ipv4.Header) { got++ })
	sa, _ := ta.Listen(0, nil)

	// Build a valid datagram, corrupt one payload byte, inject it
	// directly into the receiving transport.
	dst := Endpoint{Addr: tb.Node().Addr(), Port: 9000}
	h, payload, err := sa.buildDatagram(dst, []byte("data"), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload[HeaderLen] ^= 0xff
	tb.input(h, payload)
	if got != 0 {
		t.Fatal("corrupted datagram was delivered")
	}
	if tb.Stats().InErrors != 1 {
		t.Fatal("InErrors not counted")
	}

	// The uncorrupted image is delivered fine.
	h2, payload2, _ := sa.buildDatagram(dst, []byte("data"), 0)
	tb.input(h2, payload2)
	if got != 1 {
		t.Fatal("valid datagram rejected")
	}
}

func TestInputValidation(t *testing.T) {
	_, _, tb := pair(t)
	// Short datagram.
	tb.input(ipv4.Header{Src: 1, Dst: 2}, []byte{1, 2, 3})
	if tb.Stats().InErrors != 1 {
		t.Fatal("short datagram not rejected")
	}
	// Bad length field.
	bad := make([]byte, HeaderLen)
	bad[4], bad[5] = 0xff, 0xff
	tb.input(ipv4.Header{Src: 1, Dst: 2}, bad)
	if tb.Stats().InErrors != 2 {
		t.Fatal("bad length not rejected")
	}
}

func TestLargeDatagramFragmented(t *testing.T) {
	k, ta, tb := pair(t)
	var got []byte
	tb.Listen(9000, func(_ Endpoint, data []byte, _ ipv4.Header) {
		got = append(got[:0], data...) // data is pooled; copy to retain
	})
	sa, _ := ta.Listen(0, nil)
	payload := make([]byte, 4000) // > MTU 1500: IP fragments
	for i := range payload {
		payload[i] = byte(i)
	}
	sa.SendTo(Endpoint{Addr: tb.Node().Addr(), Port: 9000}, payload)
	k.RunFor(time.Second)
	if len(got) != 4000 {
		t.Fatalf("got %d bytes, want 4000", len(got))
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("corrupted at %d", i)
		}
	}
}

func TestTooLongDatagramRefused(t *testing.T) {
	_, ta, _ := pair(t)
	sa, _ := ta.Listen(0, nil)
	if err := sa.SendTo(Endpoint{Addr: 1, Port: 1}, make([]byte, 70000)); err == nil {
		t.Fatal("oversize datagram accepted")
	}
}

func TestBroadcast(t *testing.T) {
	k := sim.NewKernel(1)
	lan := phys.NewBus(k, "lan", phys.Config{MTU: 1500})
	net := ipv4.MustParsePrefix("10.0.0.0/24")
	var transports []*Transport
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		n := stack.NewNode(k, "h")
		n.AttachInterface(lan, net.Host(i+1), net)
		tr := New(n)
		tr.Listen(777, func(Endpoint, []byte, ipv4.Header) { counts[i]++ })
		transports = append(transports, tr)
	}
	s, _ := transports[0].Listen(0, nil)
	s.SendBroadcast(777, []byte("hear ye"))
	k.RunFor(time.Second)
	if counts[0] != 0 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestChecksumCoversTheSharedPseudoHeader: a datagram's checksum is the
// sum of its own bytes started from ipv4's pseudo-header vector
// (../ipv4/testdata/pseudo_header.txt, which the tcp tests read too).
func TestChecksumCoversTheSharedPseudoHeader(t *testing.T) {
	raw, err := os.ReadFile("../ipv4/testdata/pseudo_header.txt")
	if err != nil {
		t.Fatal(err)
	}
	var src, dst string
	var length int
	var tcpSum, udpSum uint32
	if _, err := fmt.Sscanf(string(raw), "%s %s %d %x %x", &src, &dst, &length, &tcpSum, &udpSum); err != nil {
		t.Fatal(err)
	}
	_, ta, _ := pair(t)
	sa, _ := ta.Listen(0, nil)
	to := Endpoint{Addr: ipv4.MustParseAddr(dst), Port: 9000}
	_, wire, err := sa.buildDatagram(to, make([]byte, length-HeaderLen), ipv4.MustParseAddr(src))
	if err != nil {
		t.Fatal(err)
	}
	got := binary.BigEndian.Uint16(wire[6:])
	wire[6], wire[7] = 0, 0
	if want := packet.FinishChecksum(packet.PartialChecksum(udpSum, wire)); got != want {
		t.Fatalf("checksum %#04x, want %#04x from the pseudo-header vector", got, want)
	}
}
