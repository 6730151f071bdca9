package tcp

import (
	"bytes"
	"testing"
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// jitterNet builds two hosts over a single radio-like bus whose jitter
// reorders frames aggressively.
func jitterNet(seed int64) (*sim.Kernel, *Transport, *Transport) {
	k := sim.NewKernel(seed)
	radio := phys.NewBus(k, "r", phys.Config{
		BitsPerSec: 2_000_000, Delay: 2 * time.Millisecond,
		Jitter: 30 * time.Millisecond, MTU: 576, QueueLimit: 128,
	})
	net := ipv4.MustParsePrefix("10.0.0.0/24")
	a := stack.NewNode(k, "a")
	b := stack.NewNode(k, "b")
	ia := a.AttachInterface(radio, net.Host(1), net)
	ib := b.AttachInterface(radio, net.Host(2), net)
	ia.AddNeighbor(ib.Addr, ib.NIC.Addr())
	ib.AddNeighbor(ia.Addr, ia.NIC.Addr())
	return k, New(a), New(b)
}

func TestStreamSurvivesHeavyReordering(t *testing.T) {
	// 30 ms jitter on a ~2 ms link reorders nearly every pair of
	// back-to-back segments; the receiver's out-of-order queue must
	// reconstruct the exact byte stream.
	k, t1, t2 := jitterNet(3)
	var srv sink
	t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
	c, _ := t1.Dial(Endpoint{Addr: t2.Node().Addr(), Port: 80}, Options{})
	data := pattern(150_000)
	c.OnEstablished(func() { pump(c, data, true) })
	k.RunFor(5 * time.Minute)
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("reordered stream corrupted: %d/%d", len(srv.data), len(data))
	}
}

// TestReorderingPlusLoss runs a stream over a jittered, lossy bus whose
// loss rises in short bursts, the way a fault storm raises it
// (Medium.SetLoss): every 400 ms the loss jumps to 60 % for 100 ms.
func TestReorderingPlusLoss(t *testing.T) {
	const base, burst = 0.05, 0.6
	k := sim.NewKernel(5)
	radio := phys.NewBus(k, "r", phys.Config{
		BitsPerSec: 1_000_000, Delay: 5 * time.Millisecond,
		Jitter: 20 * time.Millisecond, Loss: base, MTU: 576, QueueLimit: 128,
	})
	net := ipv4.MustParsePrefix("10.0.0.0/24")
	a := stack.NewNode(k, "a")
	b := stack.NewNode(k, "b")
	ia := a.AttachInterface(radio, net.Host(1), net)
	ib := b.AttachInterface(radio, net.Host(2), net)
	ia.AddNeighbor(ib.Addr, ib.NIC.Addr())
	ib.AddNeighbor(ia.Addr, ia.NIC.Addr())
	t1, t2 := New(a), New(b)

	var srv sink
	t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
	c, _ := t1.Dial(Endpoint{Addr: b.Addr(), Port: 80}, Options{})
	data := pattern(80_000)
	c.OnEstablished(func() { pump(c, data, true) })

	// lost and got tally the frames both stations lost and received
	// while a burst was on; bursts stop once the stream is in.
	var lost, got uint64
	tally := func() (uint64, uint64) {
		sa, sb := ia.NIC.Stats(), ib.NIC.Stats()
		return sa.RxLost + sb.RxLost, sa.RxFrames + sb.RxFrames
	}
	var storm func()
	storm = func() {
		l0, g0 := tally()
		radio.SetLoss(burst)
		k.After(100*time.Millisecond, func() {
			radio.SetLoss(base)
			l1, g1 := tally()
			lost, got = lost+l1-l0, got+g1-g0
			if len(srv.data) < len(data) {
				k.After(300*time.Millisecond, storm)
			}
		})
	}
	k.After(100*time.Millisecond, storm)
	k.RunFor(20 * time.Minute)
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("burst-lossy reordered stream corrupted: %d/%d", len(srv.data), len(data))
	}
	if lost == 0 || float64(lost) < 0.25*float64(lost+got) {
		t.Fatalf("bursts lost %d of %d frames, want well above the %.0f%% base loss", lost, lost+got, base*100)
	}
	t.Logf("bursts lost %d of %d frames", lost, lost+got)
}

func TestRSTMidStream(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var server *Conn
	n.t2.Listen(80, Options{}, func(c *Conn) {
		server = c
		c.OnData(func([]byte) {})
	})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	var cliErr error
	c.OnClose(func(err error) { cliErr = err })
	c.OnEstablished(func() { pump(c, pattern(500_000), false) })
	n.k.RunFor(200 * time.Millisecond)
	server.Abort() // server resets mid-transfer
	n.k.RunFor(5 * time.Second)
	if cliErr != ErrReset {
		t.Fatalf("client err = %v, want ErrReset", cliErr)
	}
	if c.State() != StateClosed {
		t.Fatalf("client state = %v", c.State())
	}
	if n.t1.ConnCount() != 0 || n.t2.ConnCount() != 0 {
		t.Fatal("connections leaked after mid-stream reset")
	}
}

func TestHalfCloseServerKeepsSending(t *testing.T) {
	// Client closes its send side; server continues streaming its
	// response before closing — the classic request/response shape.
	n := newTestNet(t, 1, 0)
	response := pattern(50_000)
	n.t2.Listen(80, Options{}, func(c *Conn) {
		c.OnEOF(func() {
			// Request fully received; stream the response.
			pump(c, response, true)
		})
		c.OnData(func([]byte) {})
	})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	var cli sink
	cli.attach(c)
	c.OnEstablished(func() {
		c.Write([]byte("GET /"))
		c.Close() // half close: we can still receive
	})
	n.k.RunFor(time.Minute)
	if !bytes.Equal(cli.data, response) {
		t.Fatalf("response after half-close: %d/%d", len(cli.data), len(response))
	}
	if !cli.eof {
		t.Fatal("no EOF after server close")
	}
}

func TestTimeWaitReAcksRetransmittedFIN(t *testing.T) {
	// If the final ACK of the close handshake is lost, the peer
	// retransmits its FIN; the TIME-WAIT endpoint must re-ACK, which is
	// the reason TIME-WAIT exists.
	n := newTestNet(t, 1, 0)
	var server *Conn
	n.t2.Listen(80, Options{}, func(c *Conn) {
		server = c
		c.OnEOF(func() { c.Close() })
	})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	c.OnEstablished(func() { c.Close() })
	n.k.RunFor(time.Second)
	if c.State() != StateTimeWait {
		t.Fatalf("client state = %v, want TIME-WAIT", c.State())
	}
	// Inject a retransmitted FIN from the server side by asking the
	// server conn to retransmit (simulate its ACK never arriving).
	if server.State() != StateClosed {
		t.Fatalf("server state = %v", server.State())
	}
	segsBefore := c.Stats().SegsSent
	fin := segment{
		srcPort: server.local.Port, dstPort: server.remote.Port,
		seq: server.sndNxt - 1, ack: server.rcvNxt,
		flags: flagFIN | flagACK, wnd: 4096,
	}
	c.segmentArrives(&fin)
	if c.Stats().SegsSent != segsBefore+1 {
		t.Fatal("TIME-WAIT did not re-ACK a retransmitted FIN")
	}
	if c.State() != StateTimeWait {
		t.Fatalf("state = %v after FIN re-ack", c.State())
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	n := newTestNet(t, 2, 0.01)
	const conns = 20
	const each = 20_000
	done := 0
	n.t2.Listen(80, Options{}, func(c *Conn) {
		got := 0
		c.OnData(func(b []byte) {
			got += len(b)
			if got == each {
				done++
			}
		})
	})
	for i := 0; i < conns; i++ {
		c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.OnEstablished(func() { pump(c, pattern(each), true) })
	}
	n.k.RunFor(5 * time.Minute)
	if done != conns {
		t.Fatalf("completed %d of %d connections", done, conns)
	}
}

func TestConnectionsToDistinctPortsIndependent(t *testing.T) {
	n := newTestNet(t, 1, 0)
	var a, b sink
	n.t2.Listen(81, Options{}, func(c *Conn) { a.attach(c) })
	n.t2.Listen(82, Options{}, func(c *Conn) { b.attach(c) })
	c1, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 81}, Options{})
	c2, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 82}, Options{})
	d1, d2 := pattern(30_000), bytes.Repeat([]byte{0xEE}, 25_000)
	c1.OnEstablished(func() { pump(c1, d1, true) })
	c2.OnEstablished(func() { pump(c2, d2, true) })
	n.k.RunFor(time.Minute)
	if !bytes.Equal(a.data, d1) || !bytes.Equal(b.data, d2) {
		t.Fatalf("streams crossed: %d/%d and %d/%d", len(a.data), len(d1), len(b.data), len(d2))
	}
}

func TestZeroWindowProbeSurvivesLongStall(t *testing.T) {
	n := newTestNet(t, 1, 0)
	opts := Options{WindowSize: 2048, NoDelayedAck: true}
	var server *Conn
	n.t2.Listen(80, opts, func(c *Conn) {
		server = c
		c.SetAutoRead(false)
	})
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
	data := pattern(20_000)
	c.OnEstablished(func() { pump(c, data, false) })
	// Stall for five simulated minutes: probes must keep the
	// connection alive (no ErrTimeout) the whole time.
	var closedErr error
	c.OnClose(func(err error) { closedErr = err })
	n.k.RunFor(5 * time.Minute)
	if closedErr != nil {
		t.Fatalf("connection died during window stall: %v", closedErr)
	}
	if c.Stats().ZeroWindowProbes < 5 {
		t.Fatalf("probes = %d, want several over 5 minutes", c.Stats().ZeroWindowProbes)
	}
	// Release: everything flows.
	server.SetAutoRead(true)
	var got []byte
	server.OnData(func(b []byte) { got = append(got, b...) })
	got = append(got, server.Read(1<<20)...)
	n.k.RunFor(time.Minute)
	total := len(got) + int(server.Stats().BytesReceived) - len(got) // delivered counter
	if int(server.Stats().BytesReceived) != len(data) {
		t.Fatalf("received %d, want %d (got slice %d, total %d)",
			server.Stats().BytesReceived, len(data), len(got), total)
	}
}

func TestSequenceNumberWraparound(t *testing.T) {
	// Force an ISS near 2^32 so the stream wraps the sequence space.
	n := newTestNet(t, 1, 0)
	var srv sink
	n.t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	// Rewrite the connection's sequence state before anything is sent:
	// simulate an ISS close to wrap.
	c.iss = 0xffffff00
	c.sndUna, c.sndNxt = c.iss, c.iss
	// Restart the SYN with the new ISS (the first SYN with the old ISS
	// is already out; abort it and redial deterministically instead).
	c.Abort()
	c2, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	c2.iss = 0xffffff00
	c2.sndUna, c2.sndNxt = c2.iss, c2.iss
	data := pattern(100_000) // crosses the 2^32 boundary many MSS over
	c2.OnEstablished(func() { pump(c2, data, true) })
	n.k.RunFor(2 * time.Minute)
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("wraparound stream corrupted: %d/%d", len(srv.data), len(data))
	}
}
