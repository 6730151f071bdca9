package tcp

import (
	"bytes"
	"testing"
	"time"
)

// newRenoConn builds an established connection running the newreno
// response, ready for direct state manipulation.
func newRenoConn(t *testing.T) (*testNet, *Conn) {
	t.Helper()
	n := newTestNet(t, 1, 0)
	n.t2.Listen(80, Options{MSS: 1000}, func(c *Conn) {})
	c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80},
		Options{Congestion: CCNewReno, MSS: 1000, NoDelayedAck: true})
	if err != nil {
		t.Fatal(err)
	}
	n.k.RunFor(time.Second)
	if c.State() != StateEstablished {
		t.Fatalf("state = %v, want established", c.State())
	}
	return n, c
}

// TestNewRenoPartialAck pins the RFC 6582 recovery state machine at the
// hook level: what a full ACK, a partial ACK and further dup ACKs do to
// the window, the recovery flag and the retransmission stream.
func TestNewRenoPartialAck(t *testing.T) {
	const mss = 1000
	cases := []struct {
		name string
		// state entering the hook
		inRecovery     bool
		flight         int // sndNxt - sndUna, also buffered bytes
		recoverAt      int // frRecover - sndUna (<= 0 means at/behind una)
		cwnd, ssthresh int
		// the event: acked > 0 is OnAck(acked); acked == 0 is OnDupAck
		acked int
		// expectations after the hook
		wantCwnd      int
		wantRecovery  bool
		wantRetrans   bool // a data retransmission was emitted
		wantFrMoved   bool // frRecover was (re)pinned to sndNxt
		wantFastRetex bool // stats.FastRetransmits incremented
	}{
		{
			name:       "full ack exits recovery",
			inRecovery: true, flight: 4 * mss, recoverAt: 0,
			cwnd: 11 * mss, ssthresh: 8 * mss, acked: 4 * mss,
			wantCwnd: 8 * mss, wantRecovery: false,
		},
		{
			name:       "partial ack stays in recovery and retransmits",
			inRecovery: true, flight: 8 * mss, recoverAt: 8 * mss,
			cwnd: 11 * mss, ssthresh: 8 * mss, acked: 3 * mss,
			// deflate by acked, re-inflate one MSS: 11 - 3 + 1 = 9
			wantCwnd: 9 * mss, wantRecovery: true, wantRetrans: true,
		},
		{
			name:       "sub-MSS partial ack deflates without re-inflation",
			inRecovery: true, flight: 8 * mss, recoverAt: 8 * mss,
			cwnd: 11 * mss, ssthresh: 8 * mss, acked: 400,
			wantCwnd: 11*mss - 400, wantRecovery: true, wantRetrans: true,
		},
		{
			name:       "partial ack never deflates below one MSS",
			inRecovery: true, flight: 8 * mss, recoverAt: 8 * mss,
			cwnd: 1200, ssthresh: 2 * mss, acked: 900,
			wantCwnd: mss, wantRecovery: true, wantRetrans: true,
		},
		{
			name:   "three dup acks enter recovery once",
			flight: 10 * mss,
			cwnd:   10 * mss, ssthresh: 1 << 30, acked: 0,
			// ssthresh = flight/2 = 5 MSS; cwnd = ssthresh + 3 MSS
			wantCwnd: 8 * mss, wantRecovery: true, wantRetrans: true,
			wantFrMoved: true, wantFastRetex: true,
		},
		{
			name:       "dup ack inside recovery inflates, keeps recovery point",
			inRecovery: true, flight: 8 * mss, recoverAt: 8 * mss,
			cwnd: 8 * mss, ssthresh: 5 * mss, acked: 0,
			wantCwnd: 9 * mss, wantRecovery: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newRenoConn(t)
			// Arrange: a flight of tc.flight bytes outstanding, with the
			// recovery point tc.recoverAt past sndUna.
			c.queueSend(make([]byte, tc.flight))
			c.sndNxt = c.sndUna + uint32(tc.flight)
			c.frRecover = c.sndUna + uint32(tc.recoverAt)
			c.inFastRecovery = tc.inRecovery
			c.cwnd, c.ssthresh = tc.cwnd, tc.ssthresh
			before := c.Stats()

			if tc.acked > 0 {
				// processAck advances sndUna before invoking the hook.
				c.sndUna += uint32(tc.acked)
				c.sndDrop(tc.acked)
				c.cc.OnAck(c, tc.acked)
			} else {
				c.dupAcks = 3
				c.cc.OnDupAck(c)
			}

			after := c.Stats()
			if c.cwnd != tc.wantCwnd {
				t.Errorf("cwnd = %d, want %d", c.cwnd, tc.wantCwnd)
			}
			if c.inFastRecovery != tc.wantRecovery {
				t.Errorf("inFastRecovery = %v, want %v", c.inFastRecovery, tc.wantRecovery)
			}
			if gotRetrans := after.Retransmits > before.Retransmits; gotRetrans != tc.wantRetrans {
				t.Errorf("retransmitted = %v, want %v", gotRetrans, tc.wantRetrans)
			}
			if tc.wantFrMoved && c.frRecover != c.sndNxt {
				t.Errorf("frRecover = %d, want pinned at sndNxt %d", c.frRecover, c.sndNxt)
			}
			if !tc.wantFrMoved && tc.acked == 0 && c.frRecover != c.sndUna+uint32(tc.recoverAt) {
				t.Errorf("frRecover moved to %d on an in-recovery dup ack", c.frRecover)
			}
			if gotFast := after.FastRetransmits > before.FastRetransmits; gotFast != tc.wantFastRetex {
				t.Errorf("fast retransmit counted = %v, want %v", gotFast, tc.wantFastRetex)
			}
		})
	}
}

// TestNewRenoGrowsOutsideRecovery checks the inherited Van Jacobson
// behavior is intact: slow start below ssthresh, linear growth above.
func TestNewRenoGrowsOutsideRecovery(t *testing.T) {
	_, c := newRenoConn(t)
	c.cwnd, c.ssthresh = 4000, 1<<30
	c.cc.OnAck(c, 1000)
	if c.cwnd != 5000 {
		t.Fatalf("slow start: cwnd = %d, want 5000", c.cwnd)
	}
	c.cwnd, c.ssthresh = 10000, 8000
	c.cc.OnAck(c, 1000)
	if c.cwnd != 10100 {
		t.Fatalf("congestion avoidance: cwnd = %d, want 10100", c.cwnd)
	}
}

// TestNewRenoLossyTransfer runs the newreno response end to end over a
// lossy path: the transfer must complete intact and repair losses by
// fast retransmit, like the reno test it mirrors.
func TestNewRenoLossyTransfer(t *testing.T) {
	n := newTestNet(t, 3, 0.02)
	var srv sink
	n.t2.Listen(80, Options{NoDelayedAck: true}, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80},
		Options{Congestion: CCNewReno, NoDelayedAck: true})
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
