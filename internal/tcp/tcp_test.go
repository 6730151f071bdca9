package tcp

import (
	"bytes"
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

// testNet is two hosts joined through one gateway over two point-to-point
// links, with configurable loss on the far link.
type testNet struct {
	k        *sim.Kernel
	h1, h2   *stack.Node
	gw       *stack.Node
	t1, t2   *Transport
	farLink  *phys.P2P
	nearLink *phys.P2P
}

func newTestNet(t testing.TB, seed int64, loss float64) *testNet {
	if t != nil {
		t.Helper()
	}
	k := sim.NewKernel(seed)
	near := phys.NewP2P(k, "near", phys.Config{BitsPerSec: 10_000_000, Delay: 2 * time.Millisecond, MTU: 1500, QueueLimit: 64})
	far := phys.NewP2P(k, "far", phys.Config{BitsPerSec: 10_000_000, Delay: 2 * time.Millisecond, MTU: 1500, Loss: loss, QueueLimit: 64})
	return assembleTestNet(k, near, far)
}

// assembleTestNet wires h1 - gw - h2 across the two given links.
func assembleTestNet(k *sim.Kernel, near, far *phys.P2P) *testNet {
	h1 := stack.NewNode(k, "h1")
	gw := stack.NewNode(k, "gw")
	gw.Forwarding = true
	h2 := stack.NewNode(k, "h2")

	n1 := ipv4.MustParsePrefix("10.0.1.0/24")
	n2 := ipv4.MustParsePrefix("10.0.2.0/24")
	i1 := h1.AttachInterface(near, n1.Host(1), n1)
	g1 := gw.AttachInterface(near, n1.Host(254), n1)
	g2 := gw.AttachInterface(far, n2.Host(254), n2)
	i2 := h2.AttachInterface(far, n2.Host(1), n2)
	i1.AddNeighbor(g1.Addr, g1.NIC.Addr())
	g1.AddNeighbor(i1.Addr, i1.NIC.Addr())
	g2.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(g2.Addr, g2.NIC.Addr())
	def := ipv4.MustParsePrefix("0.0.0.0/0")
	h1.Table.Add(stack.Route{Prefix: def, Via: g1.Addr, Source: stack.SourceStatic})
	h2.Table.Add(stack.Route{Prefix: def, Via: g2.Addr, Source: stack.SourceStatic})

	return &testNet{k: k, h1: h1, h2: h2, gw: gw, t1: New(h1), t2: New(h2), nearLink: near, farLink: far}
}

// sink collects everything a server connection receives.
type sink struct {
	data   []byte
	eof    bool
	closed bool
	err    error
}

func (s *sink) attach(c *Conn) {
	c.OnData(func(b []byte) { s.data = append(s.data, b...) })
	c.OnEOF(func() { s.eof = true })
	c.OnClose(func(err error) { s.closed = true; s.err = err })
}

// pattern produces a deterministic, position-dependent test payload.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/251)
	}
	return p
}

// marshal serializes the segment into fresh storage, computing the
// checksum over the pseudo-header for src->dst — the tests' wire image
// of a segment; the transport itself serializes through marshalInto.
func (s *segment) marshal(src, dst ipv4.Addr) []byte {
	var scratch []byte
	return s.marshalInto(&scratch, src, dst)
}

// pump keeps conn's send buffer full from data until all is written, then
// closes if close is set.
func pump(c *Conn, data []byte, closeAfter bool) {
	var write func()
	write = func() {
		for len(data) > 0 {
			n, err := c.Write(data)
			if err != nil || n == 0 {
				break
			}
			data = data[n:]
		}
		if len(data) == 0 {
			if closeAfter {
				c.Close()
			}
			return
		}
	}
	c.OnWriteSpace(write)
	write()
}

func TestHandshake(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var accepted *Conn
	n.t2.Listen(80, Options{}, func(c *Conn) { accepted = c })
	established := false
	c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished(func() { established = true })
	if c.state != StateSynSent {
		t.Fatalf("state = %v, want SYN-SENT", c.state)
	}
	n.k.RunFor(time.Second)
	if !established || accepted == nil {
		t.Fatalf("handshake failed: est=%v accepted=%v", established, accepted)
	}
	if c.state != StateEstablished || accepted.state != StateEstablished {
		t.Fatalf("states: %v / %v", c.state, accepted.state)
	}
	if accepted.remote != c.local {
		t.Fatal("endpoint mismatch")
	}
}

func TestConnectRefused(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var gotErr error
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 81}, Options{})
	c.OnClose(func(err error) { gotErr = err })
	n.k.RunFor(time.Second)
	if gotErr != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", gotErr)
	}
	if len(n.t1.conns) != 0 {
		t.Fatal("refused conn not removed")
	}
}

func TestBulkTransfer(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var srv sink
	n.t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	data := pattern(200_000)
	c.OnEstablished(func() { pump(c, data, true) })
	n.k.RunFor(60 * time.Second)
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("received %d bytes, want %d (equal=%v)", len(srv.data), len(data), bytes.Equal(srv.data, data))
	}
	if !srv.eof {
		t.Fatal("no EOF delivered")
	}
	st := c.Stats()
	if st.Retransmits != 0 || st.Timeouts != 0 {
		t.Fatalf("lossless transfer retransmitted: %+v", st)
	}
}

func TestBulkTransferUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.10} {
		n := newTestNet(t, 42, loss)
		var srv sink
		n.t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
		c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
		data := pattern(100_000)
		c.OnEstablished(func() { pump(c, data, true) })
		n.k.RunFor(10 * time.Minute)
		if !bytes.Equal(srv.data, data) {
			t.Fatalf("loss=%v: received %d/%d bytes intact=%v",
				loss, len(srv.data), len(data), bytes.Equal(srv.data, data))
		}
		if c.Stats().Retransmits+c.Stats().FastRetransmits == 0 {
			t.Fatalf("loss=%v: no retransmissions recorded", loss)
		}
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	n := newTestNet(t, 7, 0.02)
	up, down := pattern(50_000), pattern(60_000)
	var srv sink
	n.t2.Listen(80, Options{}, func(c *Conn) {
		srv.attach(c)
		pump(c, down, true)
	})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	var cli sink
	cli.attach(c)
	c.OnEstablished(func() { pump(c, up, true) })
	n.k.RunFor(5 * time.Minute)
	if !bytes.Equal(srv.data, up) {
		t.Fatalf("upstream corrupted: %d/%d", len(srv.data), len(up))
	}
	if !bytes.Equal(cli.data, down) {
		t.Fatalf("downstream corrupted: %d/%d", len(cli.data), len(down))
	}
}

func TestCleanCloseStates(t *testing.T) {
	n := newTestNet(t, 1, 0)
	opts := Options{}
	var server *Conn
	n.t2.Listen(80, opts, func(c *Conn) {
		server = c
		c.OnEOF(func() { c.Close() }) // close when client closes
	})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
	closed := false
	c.OnClose(func(err error) {
		if err != nil {
			t.Errorf("close err = %v", err)
		}
		closed = true
	})
	c.OnEstablished(func() {
		c.Write([]byte("bye"))
		c.Close()
	})
	n.k.RunFor(time.Second)
	// Active closer sits in TIME-WAIT; passive closer fully closed.
	if c.state != StateTimeWait {
		t.Fatalf("client state = %v, want TIME-WAIT", c.state)
	}
	if server.state != StateClosed {
		t.Fatalf("server state = %v, want CLOSED", server.state)
	}
	if !closed {
		t.Fatal("OnClose not fired at TIME-WAIT")
	}
	n.k.RunFor(time.Minute) // 2·MSL after TIME-WAIT began, within the first second
	if c.state != StateClosed {
		t.Fatalf("client state after 2MSL = %v", c.state)
	}
	if len(n.t1.conns) != 0 || len(n.t2.conns) != 0 {
		t.Fatal("connections leaked")
	}
}

func TestSimultaneousClose(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var server *Conn
	n.t2.Listen(80, Options{}, func(c *Conn) { server = c })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	c.OnEstablished(func() {
		// Let the server's accept land, then close both sides in the
		// same event: the FINs cross in flight.
		n.k.After(100*time.Millisecond, func() {
			c.Close()
			server.Close()
		})
	})
	n.k.RunFor(70 * time.Second) // both ends hold TIME-WAIT for 2·MSL
	if c.state != StateClosed || server.state != StateClosed {
		t.Fatalf("states after simultaneous close: %v / %v", c.state, server.state)
	}
}

func TestAbortSendsRST(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var server *Conn
	var srvErr error
	n.t2.Listen(80, Options{}, func(c *Conn) {
		server = c
		c.OnClose(func(err error) { srvErr = err })
	})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	c.OnEstablished(func() { c.Abort() })
	n.k.RunFor(time.Second)
	if server == nil {
		t.Fatal("no server conn")
	}
	if srvErr != ErrReset {
		t.Fatalf("server err = %v, want ErrReset", srvErr)
	}
	if len(n.t1.conns) != 0 || len(n.t2.conns) != 0 {
		t.Fatal("connections leaked after abort")
	}
}

func TestFlowControlZeroWindow(t *testing.T) {
	n := newTestNet(t, 1, 0)
	opts := Options{WindowSize: 4096, NoDelayedAck: true}
	var server *Conn
	n.t2.Listen(80, opts, func(c *Conn) {
		server = c
		c.SetAutoRead(false) // stop consuming: window must close
	})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
	data := pattern(64_000)
	c.OnEstablished(func() { pump(c, data, false) })
	n.k.RunFor(20 * time.Second)
	if server.Buffered() == 0 || server.Buffered() > 4096 {
		t.Fatalf("server buffered %d, want (0,4096]", server.Buffered())
	}
	sentBefore := c.Stats().BytesSent
	if sentBefore >= uint64(len(data)) {
		t.Fatalf("sender ignored closed window: sent %d", sentBefore)
	}
	if c.Stats().ZeroWindowProbes == 0 {
		t.Fatal("no zero-window probes while stalled")
	}
	// Drain the receiver; transfer must resume and finish.
	var got []byte
	var drain func()
	drain = func() {
		got = append(got, server.Read(4096)...)
		if len(got) < len(data) {
			n.k.After(10*time.Millisecond, drain)
		}
	}
	drain()
	n.k.RunFor(2 * time.Minute)
	if !bytes.Equal(got, data) {
		t.Fatalf("after drain got %d/%d", len(got), len(data))
	}
}

func TestRTTEstimation(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var srv sink
	n.t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	c.OnEstablished(func() { pump(c, pattern(20_000), true) })
	n.k.RunFor(30 * time.Second)
	st := c.Stats()
	// Path RTT is ~8 ms + serialization.
	if st.SRTT < 4*time.Millisecond || st.SRTT > 60*time.Millisecond {
		t.Fatalf("SRTT = %v, implausible", st.SRTT)
	}
	if st.RTO < sim.Duration(minRTO) {
		t.Fatalf("RTO = %v below floor", st.RTO)
	}
}

func TestCongestionWindowGrows(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var srv sink
	n.t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	start := c.cwnd
	c.OnEstablished(func() { pump(c, pattern(100_000), true) })
	n.k.RunFor(time.Minute)
	if c.cwnd <= start {
		t.Fatalf("cwnd did not grow: %d -> %d", start, c.cwnd)
	}
}

func TestFastRetransmit(t *testing.T) {
	// Lossy link, large transfer: with a window worth of data in flight
	// a single loss should usually be repaired by dupacks, not timeout.
	n := newTestNet(t, 3, 0.02)
	var srv sink
	n.t2.Listen(80, Options{NoDelayedAck: true}, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{NoDelayedAck: true})
	data := pattern(300_000)
	c.OnEstablished(func() { pump(c, data, true) })
	n.k.RunFor(10 * time.Minute)
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("transfer incomplete: %d/%d", len(srv.data), len(data))
	}
	if c.Stats().FastRetransmits == 0 {
		t.Fatalf("no fast retransmits under loss: %+v", c.Stats())
	}
}

func TestRepacketizationCoalesces(t *testing.T) {
	// Send many small writes with Nagle off over a link that then
	// loses everything for a while; on retransmission the repacketizing
	// sender coalesces small segments into MSS-size ones.
	run := func(repack bool) (segs uint64) {
		n := newTestNet(t, 9, 0)
		opts := Options{NoNagle: true, NoDelayedAck: true, NoRepacketize: !repack, MSS: 1000}
		var srv sink
		n.t2.Listen(80, opts, func(c *Conn) { srv.attach(c) })
		c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
		var ready bool
		c.OnEstablished(func() { ready = true })
		n.k.RunFor(time.Second)
		if !ready {
			panic("no establish")
		}
		// Cut the link, queue many small writes (they are sent and
		// lost), then restore and let retransmission deliver them.
		n.farLink.SetDown(true)
		for i := 0; i < 20; i++ {
			c.Write(pattern(50))
		}
		n.k.RunFor(2 * time.Second)
		n.farLink.SetDown(false)
		n.k.RunFor(2 * time.Minute)
		if len(srv.data) != 20*50 {
			panic("transfer incomplete")
		}
		return c.Stats().Retransmits
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("repacketization did not reduce retransmissions: with=%d without=%d", with, without)
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	countSegs := func(nagle bool) uint64 {
		n := newTestNet(t, 5, 0)
		opts := Options{NoNagle: !nagle, NoDelayedAck: true}
		var srv sink
		n.t2.Listen(80, opts, func(c *Conn) { srv.attach(c) })
		c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
		c.OnEstablished(func() {
			for i := 0; i < 50; i++ {
				i := i
				n.k.After(time.Duration(i)*200*time.Microsecond, func() { c.Write(pattern(10)) })
			}
		})
		n.k.RunFor(10 * time.Second)
		if len(srv.data) != 500 {
			t.Fatalf("nagle=%v: got %d bytes, want 500", nagle, len(srv.data))
		}
		return c.Stats().SegsSent
	}
	with := countSegs(true)
	without := countSegs(false)
	if with >= without {
		t.Fatalf("nagle did not reduce segments: with=%d without=%d", with, without)
	}
}

func TestDelayedAckReducesPureAcks(t *testing.T) {
	count := func(delack bool) uint64 {
		n := newTestNet(t, 5, 0)
		opts := Options{NoDelayedAck: !delack}
		var srvConn *Conn
		n.t2.Listen(80, opts, func(c *Conn) { srvConn = c })
		c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
		c.OnEstablished(func() { pump(c, pattern(50_000), true) })
		n.k.RunFor(time.Minute)
		return srvConn.Stats().SegsSent
	}
	with := count(true)
	without := count(false)
	if with >= without {
		t.Fatalf("delayed ack did not reduce acks: with=%d without=%d", with, without)
	}
}

func TestICMPUnreachableFailsFast(t *testing.T) {
	n := newTestNet(t, 1, 0)
	// Dial an address in an unrouted net: the gateway answers with
	// net-unreachable and the connection fails well before SYN timeout.
	var gotErr error
	c, _ := n.t1.Dial(Endpoint{Addr: ipv4.MustParseAddr("10.0.9.1"), Port: 80}, Options{})
	c.OnClose(func(err error) { gotErr = err })
	n.k.RunFor(5 * time.Second)
	if gotErr != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", gotErr)
	}
}

func TestSynTimeoutWhenBlackholed(t *testing.T) {
	n := newTestNet(t, 1, 0)
	n.farLink.SetDown(true) // silent blackhole: no ICMP
	var gotErr error
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	c.OnClose(func(err error) { gotErr = err })
	n.k.RunFor(10 * time.Minute)
	if gotErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
}

func TestMSSClampedByPeer(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var server *Conn
	n.t2.Listen(80, Options{MSS: 400}, func(c *Conn) { server = c })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{MSS: 1400})
	n.k.RunFor(time.Second)
	if c.mss() != 400 {
		t.Fatalf("client mss = %d, want 400 (peer clamp)", c.mss())
	}
	if server.mss() != 400 {
		t.Fatalf("server mss = %d, want 400 (own clamp)", server.mss())
	}
}

func TestWriteBackpressure(t *testing.T) {
	n := newTestNet(t, 1, 0)
	opts := Options{SendBufferSize: 1024}
	n.t2.Listen(80, opts, func(c *Conn) {})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
	// Before establishment the buffer accepts up to its bound.
	n1, _ := c.Write(make([]byte, 2000))
	if n1 != 1024 {
		t.Fatalf("Write accepted %d, want 1024", n1)
	}
	n2, _ := c.Write([]byte("x"))
	if n2 != 0 {
		t.Fatalf("full buffer accepted %d more", n2)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	n := newTestNet(t, 1, 0)
	n.t2.Listen(80, Options{}, func(c *Conn) {})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	c.OnEstablished(func() {
		c.Close()
		if _, err := c.Write([]byte("late")); err == nil {
			t.Error("Write after Close succeeded")
		}
	})
	n.k.RunFor(time.Second)
}

func TestSegmentWireRoundTrip(t *testing.T) {
	src, dst := ipv4.MustParseAddr("1.2.3.4"), ipv4.MustParseAddr("5.6.7.8")
	s := segment{
		srcPort: 1234, dstPort: 80,
		seq: 0xdeadbeef, ack: 0x12345678,
		flags: flagSYN | flagACK, wnd: 4096, mss: 1460,
		payload: []byte("payload bytes"),
	}
	raw := s.marshal(src, dst)
	got, err := parseSegment(src, dst, raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.seq != s.seq || got.ack != s.ack || got.flags != s.flags ||
		got.wnd != s.wnd || got.mss != 1460 || string(got.payload) != "payload bytes" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Corruption must be rejected.
	raw[7] ^= 0xff
	if _, err := parseSegment(src, dst, raw); err == nil {
		t.Fatal("corrupt segment accepted")
	}
}

// TestChecksumCoversTheSharedPseudoHeader: a segment's checksum is the
// sum of its own bytes started from ipv4's pseudo-header vector
// (../ipv4/testdata/pseudo_header.txt, which the udp tests read too).
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
	s := segment{srcPort: 1234, dstPort: 80, seq: 1, ack: 2, flags: flagACK, wnd: 4096, payload: make([]byte, length-HeaderLen)}
	wire := s.marshal(ipv4.MustParseAddr(src), ipv4.MustParseAddr(dst))
	got := binary.BigEndian.Uint16(wire[16:])
	wire[16], wire[17] = 0, 0
	if want := packet.FinishChecksum(packet.PartialChecksum(tcpSum, wire)); got != want {
		t.Fatalf("checksum %#04x, want %#04x from the pseudo-header vector", got, want)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xfffffff0, 0x10) {
		t.Fatal("wraparound LT failed")
	}
	if !seqGT(0x10, 0xfffffff0) {
		t.Fatal("wraparound GT failed")
	}
	if !seqLEQ(5, 5) || !seqGEQ(5, 5) {
		t.Fatal("equality failed")
	}
}

func TestRSTToClosedPortHasNoListener(t *testing.T) {
	n := newTestNet(t, 1, 0)
	before := n.t2.rstsSent
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 9999}, Options{})
	_ = c
	n.k.RunFor(time.Second)
	if n.t2.rstsSent <= before {
		t.Fatal("no RST emitted for closed port")
	}
}

func TestListenerCloseStopsAccepting(t *testing.T) {
	n := newTestNet(t, 1, 0)
	l, err := n.t2.Listen(80, Options{}, func(c *Conn) { t.Error("accepted after close") })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	var gotErr error
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	c.OnClose(func(err error) { gotErr = err })
	n.k.RunFor(2 * time.Second)
	if gotErr != ErrRefused {
		t.Fatalf("err = %v, want ErrRefused", gotErr)
	}
}

func TestDuplicatePortListen(t *testing.T) {
	n := newTestNet(t, 1, 0)
	if _, err := n.t2.Listen(80, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.t2.Listen(80, Options{}, nil); err != ErrPortInUse {
		t.Fatalf("err = %v, want ErrPortInUse", err)
	}
}

func TestTransferSurvivesBriefOutage(t *testing.T) {
	// The survivability scenario in miniature: mid-transfer the far
	// link dies for 5 seconds; the connection retransmits through and
	// completes without intervention.
	n := newTestNet(t, 11, 0)
	var srv sink
	n.t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	data := pattern(500_000)
	c.OnEstablished(func() { pump(c, data, true) })
	n.k.RunFor(30 * time.Millisecond)
	n.farLink.SetDown(true)
	n.k.RunFor(5 * time.Second)
	n.farLink.SetDown(false)
	n.k.RunFor(5 * time.Minute)
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("transfer died in outage: %d/%d", len(srv.data), len(data))
	}
	if c.Stats().Timeouts == 0 {
		t.Fatal("outage produced no timeouts?")
	}
}

func TestSmallMTUForcesFragmentationStillCorrect(t *testing.T) {
	// MSS larger than the far link MTU: IP fragments every segment and
	// the stream still arrives intact (the "variety of networks" cost).
	k := sim.NewKernel(2)
	near := phys.NewP2P(k, "near", phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	far := phys.NewP2P(k, "far", phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 256})
	h1 := stack.NewNode(k, "h1")
	gw := stack.NewNode(k, "gw")
	gw.Forwarding = true
	h2 := stack.NewNode(k, "h2")
	n1 := ipv4.MustParsePrefix("10.0.1.0/24")
	n2 := ipv4.MustParsePrefix("10.0.2.0/24")
	i1 := h1.AttachInterface(near, n1.Host(1), n1)
	g1 := gw.AttachInterface(near, n1.Host(254), n1)
	g2 := gw.AttachInterface(far, n2.Host(254), n2)
	i2 := h2.AttachInterface(far, n2.Host(1), n2)
	i1.AddNeighbor(g1.Addr, g1.NIC.Addr())
	g1.AddNeighbor(i1.Addr, i1.NIC.Addr())
	g2.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(g2.Addr, g2.NIC.Addr())
	def := ipv4.MustParsePrefix("0.0.0.0/0")
	h1.Table.Add(stack.Route{Prefix: def, Via: g1.Addr, Source: stack.SourceStatic})
	h2.Table.Add(stack.Route{Prefix: def, Via: g2.Addr, Source: stack.SourceStatic})
	t1, t2 := New(h1), New(h2)

	var srv sink
	t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
	c, _ := t1.Dial(Endpoint{Addr: h2.Addr(), Port: 80}, Options{MSS: 1200})
	data := pattern(30_000)
	c.OnEstablished(func() { pump(c, data, true) })
	k.RunFor(2 * time.Minute)
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("fragmented stream corrupted: %d/%d", len(srv.data), len(data))
	}
	if gw.Stats().FragCreated == 0 {
		t.Fatal("gateway did not fragment")
	}
}
