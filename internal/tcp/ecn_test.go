package tcp

import (
	"testing"
	"time"

	"darpanet/internal/ipv4"
)

// ECN (RFC 3168) over the PR 5 state machine: negotiation on the SYN
// exchange, the receiver's CE→ECE echo loop with CWR cancellation, the
// sender's once-per-window reduction, and ECT stamping on the wire.

// injectCE delivers a crafted segment whose IP header carries the CE
// mark — as if a gateway had marked the datagram in flight.
func injectCE(c *Conn, seg segment) {
	seg.srcPort = c.remote.Port
	seg.dstPort = c.local.Port
	wire := seg.marshal(c.remote.Addr, c.local.Addr)
	c.t.input(ipv4.Header{Src: c.remote.Addr, Dst: c.local.Addr, Proto: ipv4.ProtoTCP, TTL: 64, TOS: ipv4.CE}, wire)
}

// ecnConn completes a handshake with the given per-side options and
// returns both ends.
func ecnConn(t *testing.T, tn *testNet, client, server Options) (*Conn, *Conn) {
	t.Helper()
	var srv *Conn
	if _, err := tn.t2.Listen(80, server, func(c *Conn) { srv = c }); err != nil {
		t.Fatal(err)
	}
	c, err := tn.t1.Dial(Endpoint{Addr: tn.h2.Addr(), Port: 80}, client)
	if err != nil {
		t.Fatal(err)
	}
	tn.k.RunFor(time.Second)
	if c.state != StateEstablished || srv == nil || srv.state != StateEstablished {
		t.Fatalf("handshake did not complete: client %v, server %v", c.state, srv)
	}
	return c, srv
}

// TestECNNegotiation pins the SYN-exchange rule: capability holds only
// when the client offered (ECE|CWR on SYN) and the server answered (ECE
// alone on SYN-ACK). Either side staying silent turns it off for both.
func TestECNNegotiation(t *testing.T) {
	cases := []struct {
		name           string
		client, server Options
		want           bool
	}{
		{"both offer", Options{ECN: true}, Options{ECN: true}, true},
		{"client only", Options{ECN: true}, Options{}, false},
		{"server only", Options{}, Options{ECN: true}, false},
		{"neither", Options{}, Options{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTestNet(t, 7, 0)
			c, srv := ecnConn(t, tn, tc.client, tc.server)
			if c.ecnOK != tc.want || srv.ecnOK != tc.want {
				t.Fatalf("ecnOK client=%v server=%v, want %v", c.ecnOK, srv.ecnOK, tc.want)
			}
		})
	}
}

// TestECNReceiverEcho drives the receiver half of the feedback loop as
// state-machine rows: CE sets the echo latch, every ACK repeats ECE
// until the peer's CWR clears it, and CWR+CE in one segment re-arms the
// latch (CWR is processed first, per RFC 3168 §6.1.3).
func TestECNReceiverEcho(t *testing.T) {
	tn := newTestNet(t, 7, 0)
	c, _ := ecnConn(t, tn, Options{ECN: true}, Options{ECN: true})
	tn.nearLink.SetDown(true)
	tn.farLink.SetDown(true)

	rows := []struct {
		name     string
		ce       bool
		flags    uint8
		payload  int
		wantEcho bool
	}{
		{"CE data sets the echo latch", true, flagACK, 10, true},
		{"unmarked data leaves it set", false, flagACK, 10, true},
		{"CWR clears the latch", false, flagACK | flagCWR, 10, false},
		{"unmarked data leaves it clear", false, flagACK, 10, false},
		{"CWR+CE re-arms the latch", true, flagACK | flagCWR, 10, true},
	}
	marks := uint64(0)
	for _, r := range rows {
		seg := segment{flags: r.flags, seq: c.rcvNxt, ack: c.sndNxt, wnd: 65535, payload: pattern(r.payload)}
		if r.ce {
			injectCE(c, seg)
			marks++
		} else {
			inject(c, seg)
		}
		if c.ecnEcho != r.wantEcho {
			t.Fatalf("%s: ecnEcho = %v, want %v", r.name, c.ecnEcho, r.wantEcho)
		}
		if c.stats.CEMarksSeen != marks {
			t.Fatalf("%s: CEMarksSeen = %d, want %d", r.name, c.stats.CEMarksSeen, marks)
		}
	}

	// The latch must reach the wire: with it set, the ACKs the kernel
	// flushes carry ECE.
	eceACKs, acks := 0, 0
	tn.h1.SetPacketTap(func(send bool, _ string, raw []byte) {
		if !send {
			return
		}
		h, payload, err := ipv4.Parse(raw)
		if err != nil || h.Proto != ipv4.ProtoTCP {
			return
		}
		s, err := parseSegment(h.Src, h.Dst, payload)
		if err != nil || s.flags&flagACK == 0 || len(s.payload) > 0 {
			return
		}
		acks++
		if s.flags&flagECE != 0 {
			eceACKs++
		}
	})
	inject(c, segment{flags: flagACK, seq: c.rcvNxt, ack: c.sndNxt, wnd: 65535, payload: pattern(10)})
	tn.k.RunFor(time.Second)
	tn.h1.SetPacketTap(nil)
	if acks == 0 || eceACKs != acks {
		t.Fatalf("with the latch set, %d of %d ACKs carried ECE, want all", eceACKs, acks)
	}
}

// TestECNIgnoredWithoutNegotiation: on a connection that never agreed
// on ECN, a CE mark and a stray ECE are both dead letters.
func TestECNIgnoredWithoutNegotiation(t *testing.T) {
	tn := newTestNet(t, 7, 0)
	c, _ := ecnConn(t, tn, Options{}, Options{})
	tn.nearLink.SetDown(true)
	tn.farLink.SetDown(true)

	injectCE(c, segment{flags: flagACK, seq: c.rcvNxt, ack: c.sndNxt, wnd: 65535, payload: pattern(10)})
	if c.ecnEcho || c.stats.CEMarksSeen != 0 {
		t.Fatalf("CE processed without negotiation: echo=%v marks=%d", c.ecnEcho, c.stats.CEMarksSeen)
	}

	if n, err := c.Write(pattern(100)); err != nil || n != 100 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	cwnd0 := c.cwnd
	inject(c, segment{flags: flagACK | flagECE, seq: c.rcvNxt, ack: c.sndUna + 50, wnd: 65535})
	if c.stats.ECEsReceived != 0 || c.cwnd < cwnd0 {
		t.Fatalf("ECE processed without negotiation: eces=%d cwnd %d -> %d", c.stats.ECEsReceived, cwnd0, c.cwnd)
	}
}

// TestECNSenderResponse pins the sender half: an ECE-bearing ACK of new
// data triggers exactly one multiplicative decrease per window (reno's
// OnECE), arms CWR for the next data segment, and further ECEs inside
// the same window are counted but not acted on.
func TestECNSenderResponse(t *testing.T) {
	tn := newTestNet(t, 7, 0)
	c, _ := ecnConn(t, tn, Options{ECN: true}, Options{ECN: true})
	tn.nearLink.SetDown(true)
	tn.farLink.SetDown(true)

	// Eight MSS of data in flight with an artificially grown window, so
	// the halving is visible (flight/2 well above the 2-MSS floor).
	mss := c.mss()
	c.cwnd = 8 * mss
	if n, err := c.Write(pattern(8 * mss)); err != nil || n != 8*mss {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if got := c.sndNxt - c.sndUna; got != uint32(8*mss) {
		t.Fatalf("outstanding = %d, want %d", got, 8*mss)
	}

	inject(c, segment{flags: flagACK | flagECE, seq: c.rcvNxt, ack: c.sndUna + uint32(mss), wnd: 65535})
	if c.stats.ECEsReceived != 1 {
		t.Fatalf("ECEsReceived = %d, want 1", c.stats.ECEsReceived)
	}
	if c.ssthresh != 4*mss {
		t.Fatalf("ssthresh after ECE = %d, want %d (half of flight)", c.ssthresh, 4*mss)
	}
	if c.cwnd > 4*mss+mss { // OnAck growth may add a fraction of an MSS
		t.Fatalf("cwnd after ECE = %d, want ~%d", c.cwnd, 4*mss)
	}
	if !c.cwrDue || c.ecnRecover != c.sndNxt {
		t.Fatalf("cwrDue = %v, ecnRecover = %d (sndNxt %d)", c.cwrDue, c.ecnRecover, c.sndNxt)
	}

	// A second ECE inside the same window: counted, no second decrease.
	ssthresh1 := c.ssthresh
	inject(c, segment{flags: flagACK | flagECE, seq: c.rcvNxt, ack: c.sndUna + uint32(mss), wnd: 65535})
	if c.stats.ECEsReceived != 2 || c.ssthresh != ssthresh1 {
		t.Fatalf("second in-window ECE: eces=%d ssthresh %d -> %d", c.stats.ECEsReceived, ssthresh1, c.ssthresh)
	}

	// Ack the rest of the flight (the halved window is smaller than what
	// is outstanding, so nothing new can leave until it drains), then
	// the next data segment announces the reduction with CWR, once.
	inject(c, segment{flags: flagACK, seq: c.rcvNxt, ack: c.sndNxt, wnd: 65535})
	if _, err := c.Write(pattern(100)); err != nil {
		t.Fatal(err)
	}
	if c.stats.CWRsSent != 1 || c.cwrDue {
		t.Fatalf("CWRsSent = %d, cwrDue = %v, want 1, false", c.stats.CWRsSent, c.cwrDue)
	}

	// New data past the recovery point: an ECE acking it reduces again.
	inject(c, segment{flags: flagACK | flagECE, seq: c.rcvNxt, ack: c.sndNxt, wnd: 65535})
	if c.stats.ECEsReceived != 3 || !c.cwrDue || c.ecnRecover != c.sndNxt {
		t.Fatalf("next-window ECE: eces=%d cwrDue=%v", c.stats.ECEsReceived, c.cwrDue)
	}
}

// TestECNECTStamping checks the TOS codepoints on the wire: a
// negotiated connection stamps ECT0 on data segments only — never on
// SYN, RST or pure ACKs — and an unnegotiated one sends everything
// Not-ECT.
func TestECNECTStamping(t *testing.T) {
	for _, ecn := range []bool{true, false} {
		opts := Options{ECN: ecn}
		name := "negotiated"
		if !ecn {
			name = "off"
		}
		t.Run(name, func(t *testing.T) {
			tn := newTestNet(t, 7, 0)
			type stamped struct {
				ect     uint8
				syn     bool
				payload int
			}
			var seen []stamped
			tap := func(send bool, _ string, raw []byte) {
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
				seen = append(seen, stamped{ipv4.ECN(h.TOS), s.syn(), len(s.payload)})
			}
			tn.h1.SetPacketTap(tap)
			tn.h2.SetPacketTap(tap)
			var srv *Conn
			if _, err := tn.t2.Listen(80, opts, func(c *Conn) { srv = c }); err != nil {
				t.Fatal(err)
			}
			c, err := tn.t1.Dial(Endpoint{Addr: tn.h2.Addr(), Port: 80}, opts)
			if err != nil {
				t.Fatal(err)
			}
			tn.k.RunFor(time.Second)
			if c.state != StateEstablished || srv == nil {
				t.Fatal("handshake did not complete")
			}
			if _, err := c.Write(pattern(2000)); err != nil {
				t.Fatal(err)
			}
			tn.k.RunFor(2 * time.Second)
			data, ectData := 0, 0
			for _, s := range seen {
				if s.syn || s.payload == 0 {
					if s.ect != ipv4.NotECT {
						t.Fatalf("control segment stamped ECT (syn=%v payload=%d)", s.syn, s.payload)
					}
					continue
				}
				data++
				if s.ect == ipv4.ECT0 {
					ectData++
				}
			}
			if data == 0 {
				t.Fatal("no data segments observed")
			}
			want := 0
			if ecn {
				want = data
			}
			if ectData != want {
				t.Fatalf("%d of %d data segments ECT-stamped, want %d", ectData, data, want)
			}
		})
	}
}
