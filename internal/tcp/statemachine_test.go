package tcp

import (
	"testing"
	"time"

	"darpanet/internal/ipv4"
)

// This file pins the segment x state corners of segmentArrives: what a
// RST does to a connection still in SYN-SENT, what a SYN does to one
// lingering in TIME-WAIT, and how FIN-WAIT-1 survives a partial ACK
// until the retransmission timer resends the FIN. The tests document
// today's behavior — any change here should be deliberate, not a side
// effect.

// inject delivers a crafted segment to c as if the peer had sent it,
// going through the full wire marshal / checksum / demux path.
func inject(c *Conn, seg segment) {
	seg.srcPort = c.remote.Port
	seg.dstPort = c.local.Port
	wire := seg.marshal(c.remote.Addr, c.local.Addr)
	c.t.input(ipv4.Header{Src: c.remote.Addr, Dst: c.local.Addr, Proto: ipv4.ProtoTCP, TTL: 64}, wire)
}

// synSentConn dials into the quiet network without running the kernel,
// leaving the client frozen in SYN-SENT with its SYN still in flight.
func synSentConn(t *testing.T, tn *testNet) *Conn {
	t.Helper()
	c, err := tn.t1.Dial(Endpoint{Addr: tn.h2.Addr(), Port: 80}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != StateSynSent {
		t.Fatalf("after Dial state = %v, want SYN-SENT", c.State())
	}
	return c
}

// timeWaitConn runs a handshake and an orderly active close, leaving
// the client in TIME-WAIT (the server closes as soon as it sees EOF).
func timeWaitConn(t *testing.T, tn *testNet) *Conn {
	t.Helper()
	if _, err := tn.t2.Listen(80, Options{}, func(c *Conn) { c.OnEOF(c.Close) }); err != nil {
		t.Fatal(err)
	}
	c, err := tn.t1.Dial(Endpoint{Addr: tn.h2.Addr(), Port: 80}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tn.k.RunFor(time.Second)
	if c.State() != StateEstablished {
		t.Fatalf("handshake did not complete: state = %v", c.State())
	}
	c.Close()
	tn.k.RunFor(time.Second)
	if c.State() != StateTimeWait {
		t.Fatalf("after orderly close state = %v, want TIME-WAIT", c.State())
	}
	return c
}

// finWait1Conn establishes a connection, cuts both links, and sends ten
// data bytes plus a FIN into the void: the client sits in FIN-WAIT-1
// with eleven sequence numbers outstanding and a live retransmit timer.
func finWait1Conn(t *testing.T, tn *testNet) *Conn {
	t.Helper()
	if _, err := tn.t2.Listen(80, Options{}, func(*Conn) {}); err != nil {
		t.Fatal(err)
	}
	c, err := tn.t1.Dial(Endpoint{Addr: tn.h2.Addr(), Port: 80}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tn.k.RunFor(time.Second)
	if c.State() != StateEstablished {
		t.Fatalf("handshake did not complete: state = %v", c.State())
	}
	tn.nearLink.SetDown(true)
	tn.farLink.SetDown(true)
	if n, err := c.Write(pattern(10)); err != nil || n != 10 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	c.Close()
	if c.State() != StateFinWait1 || !c.finSent {
		t.Fatalf("after Close state = %v finSent = %v, want FIN-WAIT-1 with FIN sent", c.State(), c.finSent)
	}
	if got := c.sndNxt - c.sndUna; got != 11 {
		t.Fatalf("outstanding sequence space = %d, want 11 (10 data + FIN)", got)
	}
	return c
}

// countRetrans taps h1's outbound datagrams while the kernel runs for d,
// returning how many TCP segments carried a FIN and how many carried
// payload (both links are down, so everything counted is a retransmit).
func countRetrans(tn *testNet, d time.Duration) (fins, data int) {
	tn.h1.SetPacketTap(func(send bool, _ string, raw []byte) {
		if !send {
			return
		}
		h, payload, err := ipv4.Parse(raw)
		if err != nil || h.Proto != ipv4.ProtoTCP {
			return
		}
		s, err := parseSegment(h.Src, h.Dst, payload)
		if err != nil {
			return
		}
		if s.fin() {
			fins++
		}
		if len(s.payload) > 0 {
			data++
		}
	})
	tn.k.RunFor(d)
	tn.h1.SetPacketTap(nil)
	return fins, data
}

func TestSegmentStateMachine(t *testing.T) {
	established := 0 // OnEstablished calls seen by the SYN-ACK row
	cases := []struct {
		name    string
		setup   func(*testing.T, *testNet) *Conn
		seg     func(*Conn) segment
		want    State
		wantErr error  // c.closeErr after the injection
		rsts    uint64 // RSTs the local transport must emit in response
		sent    uint64 // segments the connection must emit in response
		after   func(*testing.T, *testNet, *Conn)
	}{
		{
			// RFC 793 p.67: an acceptable ACK carrying RST in SYN-SENT
			// means the peer refused. The connection dies silently.
			name:    "syn-sent: RST with acceptable ACK refuses the connection",
			setup:   synSentConn,
			seg:     func(c *Conn) segment { return segment{flags: flagRST | flagACK, ack: c.sndNxt} },
			want:    StateClosed,
			wantErr: ErrRefused,
			after: func(t *testing.T, tn *testNet, c *Conn) {
				if n := tn.t1.ConnCount(); n != 0 {
					t.Fatalf("refused connection still registered: ConnCount = %d", n)
				}
			},
		},
		{
			// A RST without an ACK proves nothing about our SYN, so it
			// is dropped and the open attempt continues.
			name:  "syn-sent: blind RST without ACK is ignored",
			setup: synSentConn,
			seg:   func(c *Conn) segment { return segment{flags: flagRST, seq: 12345} },
			want:  StateSynSent,
		},
		{
			// A RST whose ACK does not cover our SYN is an old
			// duplicate; it neither kills the connection nor draws a
			// reply (replying to a RST would loop).
			name:  "syn-sent: RST with stale ACK is ignored",
			setup: synSentConn,
			seg:   func(c *Conn) segment { return segment{flags: flagRST | flagACK, ack: c.iss} },
			want:  StateSynSent,
		},
		{
			// The SYN-ACK completes the open: one ACK goes back and
			// OnEstablished runs once, then lets go of the callback and
			// whatever it captured.
			name: "syn-sent: SYN-ACK establishes and fires OnEstablished once",
			setup: func(t *testing.T, tn *testNet) *Conn {
				established = 0
				c := synSentConn(t, tn)
				c.OnEstablished(func() { established++ })
				return c
			},
			seg: func(c *Conn) segment {
				return segment{flags: flagSYN | flagACK, seq: 5000, ack: c.sndNxt, wnd: 65535}
			},
			want: StateEstablished,
			sent: 1,
			after: func(t *testing.T, tn *testNet, c *Conn) {
				if established != 1 || c.onEstablished != nil {
					t.Fatalf("OnEstablished ran %d times and is still registered = %v, want once and cleared", established, c.onEstablished != nil)
				}
			},
		},
		{
			// A plain ACK for sequence space we never sent draws a RST
			// but leaves the open attempt running.
			name:  "syn-sent: stray ACK outside the window draws a RST",
			setup: synSentConn,
			seg:   func(c *Conn) segment { return segment{flags: flagACK, ack: c.iss} },
			want:  StateSynSent,
			rsts:  1,
		},
		{
			// A SYN inside the receive window while in TIME-WAIT is
			// fatal: RST the sender and tear down. The close callback
			// already fired (with nil) on entering TIME-WAIT, so
			// closeErr stays nil even though the teardown reason is a
			// reset.
			name:  "time-wait: in-window SYN resets the connection",
			setup: timeWaitConn,
			seg:   func(c *Conn) segment { return segment{flags: flagSYN, seq: c.rcvNxt, wnd: 65535} },
			want:  StateClosed,
			rsts:  1,
			after: func(t *testing.T, tn *testNet, c *Conn) {
				if n := tn.t1.ConnCount(); n != 0 {
					t.Fatalf("reset TIME-WAIT connection still registered: ConnCount = %d", n)
				}
			},
		},
		{
			// An old duplicate SYN from before the final handshake is
			// outside the window: it only provokes the resynchronizing
			// ACK and the connection stays parked in TIME-WAIT.
			name:  "time-wait: old duplicate SYN draws a resync ACK",
			setup: timeWaitConn,
			seg:   func(c *Conn) segment { return segment{flags: flagSYN, seq: c.rcvNxt - 2000} },
			want:  StateTimeWait,
			sent:  1,
		},
		{
			// Any acceptable ACK in TIME-WAIT (e.g. the peer never saw
			// our last ACK) is re-acked and restarts the 2MSL clock.
			name:  "time-wait: pure ACK is re-acked, stays in TIME-WAIT",
			setup: timeWaitConn,
			seg: func(c *Conn) segment {
				return segment{flags: flagACK, seq: c.rcvNxt, ack: c.sndNxt, wnd: 65535}
			},
			want: StateTimeWait,
			sent: 1,
		},
		{
			// An ACK in the middle of the outstanding data: FIN-WAIT-1
			// persists and the retransmission timer resends *data* from
			// the new sndUna. The FIN flag rides only the tail, so no
			// FIN appears on the wire while data is still unacked —
			// today's retransmit policy, pinned here.
			name:  "fin-wait-1: mid-data partial ACK retransmits data, not the FIN",
			setup: finWait1Conn,
			seg: func(c *Conn) segment {
				return segment{flags: flagACK, seq: c.rcvNxt, ack: c.sndUna + 5, wnd: 65535}
			},
			want: StateFinWait1,
			after: func(t *testing.T, tn *testNet, c *Conn) {
				if got := c.sndNxt - c.sndUna; got != 6 {
					t.Fatalf("outstanding after partial ACK = %d, want 6 (5 data + FIN)", got)
				}
				fins, data := countRetrans(tn, 5*time.Second)
				if fins != 0 {
					t.Fatalf("%d FIN segments retransmitted with data still unacked, want 0", fins)
				}
				if data == 0 || c.stats.Retransmits == 0 {
					t.Fatalf("data not retransmitted: %d segments, Retransmits = %d", data, c.stats.Retransmits)
				}
				if c.State() != StateFinWait1 {
					t.Fatalf("state = %v while FIN unacked, want FIN-WAIT-1", c.State())
				}
			},
		},
		{
			// An ACK of all the data but not the FIN: the FIN alone
			// stays outstanding, the timer resends it as a bare
			// FIN|ACK, and only the ACK of everything moves the
			// connection to FIN-WAIT-2.
			name:  "fin-wait-1: ACK short of the FIN leaves the FIN for retransmit",
			setup: finWait1Conn,
			seg: func(c *Conn) segment {
				return segment{flags: flagACK, seq: c.rcvNxt, ack: c.sndNxt - 1, wnd: 65535}
			},
			want: StateFinWait1,
			after: func(t *testing.T, tn *testNet, c *Conn) {
				if got := c.sndNxt - c.sndUna; got != 1 {
					t.Fatalf("outstanding after data ACK = %d, want 1 (the FIN)", got)
				}
				fins, _ := countRetrans(tn, 5*time.Second)
				if fins == 0 {
					t.Fatal("FIN was not retransmitted after the partial ACK")
				}
				if c.State() != StateFinWait1 {
					t.Fatalf("state = %v while FIN unacked, want FIN-WAIT-1", c.State())
				}
				inject(c, segment{flags: flagACK, seq: c.rcvNxt, ack: c.sndNxt, wnd: 65535})
				if c.State() != StateFinWait2 {
					t.Fatalf("state after full ACK = %v, want FIN-WAIT-2", c.State())
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTestNet(t, 7, 0)
			c := tc.setup(t, tn)
			rst0, sent0 := tn.t1.rstsSent, c.stats.SegsSent
			inject(c, tc.seg(c))
			if c.State() != tc.want {
				t.Fatalf("state = %v, want %v", c.State(), tc.want)
			}
			if c.closeErr != tc.wantErr {
				t.Fatalf("closeErr = %v, want %v", c.closeErr, tc.wantErr)
			}
			if got := tn.t1.rstsSent - rst0; got != tc.rsts {
				t.Fatalf("transport sent %d RSTs in response, want %d", got, tc.rsts)
			}
			if got := c.stats.SegsSent - sent0; got != tc.sent {
				t.Fatalf("connection sent %d segments in response, want %d", got, tc.sent)
			}
			if tc.after != nil {
				tc.after(t, tn, c)
			}
		})
	}
}
