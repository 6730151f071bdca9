package tcp

import (
	"bytes"
	"testing"
	"time"
)

// TestConcurrentStreamsShareScratchUnderLoss pins the transmit-scratch
// contract: every segment on a transport serializes through one reused
// buffer, so two lossy connections interleaving transmissions and
// retransmissions must not bleed bytes into each other. Any stale-byte
// or aliasing bug in marshalInto corrupts at least one stream.
func TestConcurrentStreamsShareScratchUnderLoss(t *testing.T) {
	n := newTestNet(t, 99, 0.05)
	var srvA, srvB sink
	n.t2.Listen(80, Options{}, func(c *Conn) { srvA.attach(c) })
	n.t2.Listen(81, Options{}, func(c *Conn) { srvB.attach(c) })

	dataA := pattern(60_000)
	dataB := make([]byte, 60_000)
	for i := range dataB {
		dataB[i] = byte(255 - i*13)
	}

	cA, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	cB, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 81}, Options{})
	cA.OnEstablished(func() { pump(cA, dataA, true) })
	cB.OnEstablished(func() { pump(cB, dataB, true) })
	n.k.RunFor(10 * time.Minute)

	if !bytes.Equal(srvA.data, dataA) {
		t.Fatalf("stream A corrupted: got %d bytes, want %d", len(srvA.data), len(dataA))
	}
	if !bytes.Equal(srvB.data, dataB) {
		t.Fatalf("stream B corrupted: got %d bytes, want %d", len(srvB.data), len(dataB))
	}
	if cA.Stats().Retransmits+cA.Stats().FastRetransmits+cB.Stats().Retransmits+cB.Stats().FastRetransmits == 0 {
		t.Fatal("no retransmissions — the loss path was not exercised")
	}
}

// TestTimeWaitExpiryAndReconnectAfterPooling drives a full connection
// lifecycle twice in a row: the first connection's TIME-WAIT must expire
// through its prebound timer and unregister the conn, and a second
// connection — served from buffers the first one recycled into the
// kernel's pool — must transfer intact.
func TestTimeWaitExpiryAndReconnectAfterPooling(t *testing.T) {
	n := newTestNet(t, 7, 0)
	var srv *sink
	n.t2.Listen(80, Options{}, func(c *Conn) {
		srv = &sink{}
		srv.attach(c)
		c.OnEOF(func() { c.Close() })
	})

	transfer := func(data []byte) *Conn {
		c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.OnEstablished(func() { pump(c, data, true) })
		n.k.RunFor(5 * time.Second)
		if !bytes.Equal(srv.data, data) {
			t.Fatalf("received %d bytes, want %d", len(srv.data), len(data))
		}
		return c
	}

	first := transfer(pattern(40_000))
	if first.State() != StateTimeWait {
		t.Fatalf("active closer state = %v, want TIME-WAIT", first.State())
	}
	n.k.RunFor(time.Minute)
	if first.State() != StateClosed {
		t.Fatalf("state after 2MSL = %v, want CLOSED", first.State())
	}
	if n.t1.ConnCount() != 0 {
		t.Fatal("TIME-WAIT conn not removed from transport")
	}

	// Second lifecycle over the same port pair and the same pool.
	second := transfer(pattern(40_000))
	n.k.RunFor(time.Minute)
	if second.State() != StateClosed {
		t.Fatalf("second connection state = %v, want CLOSED", second.State())
	}
	if n.t1.ConnCount() != 0 || n.t2.ConnCount() != 0 {
		t.Fatal("connections leaked after second lifecycle")
	}
}
