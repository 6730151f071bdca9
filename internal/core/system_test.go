package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/nvp"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/stack"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
	"darpanet/internal/xnet"
)

// TestWholeInternet is the grand integration test: a multi-technology,
// multi-administration internet running every protocol in the repository
// simultaneously, surviving a gateway crash in the middle of it all.
//
//	lanA ---- gwA ==== trunk1 ==== gwB ---- lanB
//	            \\                  //
//	             ==== gwC (radio) ==
//
// Traffic: TCP bulk (A->B), UDP query/response, XNET debugging, NVP
// voice, RIP routing, pings and a traceroute — all at once, with gwB
// crashing and recovering mid-run.
func TestWholeInternet(t *testing.T) {
	nw := core.New(1988)
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 64}
	trunk := phys.Config{BitsPerSec: 1_544_000, Delay: 5 * time.Millisecond, MTU: 576, QueueLimit: 64}
	radio := phys.Config{BitsPerSec: 400_000, Delay: 8 * time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.02, MTU: 576, QueueLimit: 64}

	nw.AddNet("lanA", "10.1.0.0/24", core.LAN, lan)
	nw.AddNet("lanB", "10.2.0.0/24", core.LAN, lan)
	nw.AddNet("trunk1", "10.9.1.0/24", core.P2P, trunk)
	nw.AddNet("radio1", "10.9.2.0/24", core.Radio, radio)
	nw.AddNet("radio2", "10.9.3.0/24", core.P2P, trunk)

	nw.AddHost("alice", "lanA")
	nw.AddHost("adam", "lanA")
	nw.AddHost("bob", "lanB")
	nw.AddHost("bea", "lanB")
	nw.AddGateway("gwA", "lanA", "trunk1", "radio1")
	nw.AddGateway("gwB", "trunk1", "lanB")
	nw.AddGateway("gwC", "radio1", "radio2")
	nw.AddGateway("gwD", "radio2", "lanB")

	nw.EnableRIP(rip.FastConfig())
	nw.RunFor(15 * time.Second)

	// --- TCP bulk, alice -> bob -------------------------------------
	const fileSize = 1_000_000
	want := make([]byte, fileSize)
	for i := range want {
		want[i] = byte(i * 13)
	}
	var got []byte
	nw.TCP("bob").Listen(80, tcp.Options{}, func(c *tcp.Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	})
	conn, err := nw.TCP("alice").Dial(tcp.Endpoint{Addr: nw.Addr("bob"), Port: 80}, tcp.Options{SendBufferSize: 65535})
	if err != nil {
		t.Fatal(err)
	}
	rest := want
	push := func() {
		for len(rest) > 0 {
			n, err := conn.Write(rest)
			if n == 0 || err != nil {
				return
			}
			rest = rest[n:]
		}
		conn.Close()
	}
	conn.OnEstablished(push)
	conn.OnWriteSpace(push)

	// --- UDP query/response, adam -> bea -----------------------------
	var echoSock *udp.Socket
	echoSock, err = nw.UDP("bea").Listen(53, func(from udp.Endpoint, data []byte, _ ipv4.Header) {
		echoSock.SendTo(from, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, answers := 0, 0
	qsock, _ := nw.UDP("adam").Listen(0, func(_ udp.Endpoint, _ []byte, _ ipv4.Header) { answers++ })
	// Spread over 60 s so the 16 s outage hits only a fraction; UDP has
	// no retransmission, so queries sent into the outage are simply
	// lost — the datagram contract.
	for i := 0; i < 50; i++ {
		i := i
		nw.Kernel().After(time.Duration(i)*1200*time.Millisecond, func() {
			queries++
			qsock.SendTo(udp.Endpoint{Addr: nw.Addr("bea"), Port: 53}, []byte(fmt.Sprintf("q%d", i)))
		})
	}

	// --- XNET: adam debugs bob --------------------------------------
	xnet.NewTarget(nw.Node("bob"), 1024)
	dbg := xnet.NewClient(nw.Node("adam"))
	dbg.Retries = 20 // a debugger should outlast a routing transient
	peeks := 0
	for i := 0; i < 10; i++ {
		i := i
		nw.Kernel().After(time.Duration(i)*6*time.Second, func() {
			dbg.Peek(nw.Addr("bob"), 0, 20, func(p []byte, err error) {
				if err == nil && len(p) == 20 {
					peeks++
				}
			})
		})
	}

	// --- NVP voice: alice -> bea -------------------------------------
	recv := nvp.NewReceiver(nw.Node("bea"), 5)
	recv.PlayoutDelay = 200 * time.Millisecond
	snd := nvp.NewSender(nw.Node("alice"), nw.Addr("bea"), 5)
	snd.Start(15 * time.Second)

	// --- mid-run fault: gwB (the fast path to lanB) dies and returns --
	nw.Kernel().After(4*time.Second, func() { nw.CrashNode("gwB") })
	nw.Kernel().After(20*time.Second, func() { nw.RestoreNode("gwB") })

	// --- a traceroute near the end, over the recovered path ----------
	var hops []stack.Hop
	nw.Kernel().After(40*time.Second, func() {
		nw.Node("alice").Traceroute(nw.Addr("bob"), 10, time.Second, func(h []stack.Hop) { hops = h })
	})

	nw.RunFor(2 * time.Minute)

	// --- verdicts ------------------------------------------------------
	if !bytes.Equal(got, want) {
		t.Errorf("TCP stream corrupted or incomplete: %d/%d", len(got), len(want))
	}
	// The outage covers ~16 s of the 60 s query window; everything
	// outside it must answer (UDP does not retransmit — by contract).
	if answers < queries*6/10 {
		t.Errorf("UDP answers %d of %d", answers, queries)
	}
	// XNET's stop-and-wait retries (20 x 500 ms) outlast reconvergence.
	if peeks < 9 {
		t.Errorf("XNET peeks succeeded %d of 10", peeks)
	}
	vs := recv.Stats()
	if vs.OnTime == 0 {
		t.Error("no voice frames made playout")
	}
	// Voice runs 15 s and the outage covers most of it: those frames
	// are lost, not delayed — "it is better to drop late speech". The
	// pre-outage frames must all have played.
	lossPct := float64(vs.Lost+vs.Late) / float64(snd.Sent)
	if lossPct > 0.9 {
		t.Errorf("voice loss %.0f%%: even pre-outage frames failed", lossPct*100)
	}
	if vs.Lost == 0 {
		t.Error("outage should have cost voice frames (no retransmission by design)")
	}
	if len(hops) == 0 || !hops[len(hops)-1].Reached {
		t.Errorf("traceroute failed: %+v", hops)
	}
	if conn.Stats().Timeouts == 0 {
		t.Error("TCP rode through a 16s outage without a single timeout?")
	}
	t.Logf("tcp: %d segs, %d retrans, %d timeouts", conn.Stats().SegsSent, conn.Stats().Retransmits, conn.Stats().Timeouts)
	t.Logf("voice: %d sent, %d on-time, %d late, %d lost", snd.Sent, vs.OnTime, vs.Late, vs.Lost)
	t.Logf("traceroute: %d hops", len(hops))
}

func TestSystemDeterminism(t *testing.T) {
	// Two identical whole-network runs produce identical statistics.
	run := func() (uint64, uint64) {
		nw := core.New(5)
		nw.AddNet("l1", "10.1.0.0/24", core.LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
		nw.AddNet("l2", "10.2.0.0/24", core.Radio, phys.Config{BitsPerSec: 1_000_000, Delay: 2 * time.Millisecond, Loss: 0.05, MTU: 576})
		nw.AddHost("a", "l1")
		nw.AddGateway("g", "l1", "l2")
		nw.AddHost("b", "l2")
		nw.InstallStaticRoutes()
		var srvBytes uint64
		nw.TCP("b").Listen(80, tcp.Options{}, func(c *tcp.Conn) {
			c.OnData(func(bts []byte) { srvBytes += uint64(len(bts)) })
		})
		c, _ := nw.TCP("a").Dial(tcp.Endpoint{Addr: nw.Addr("b"), Port: 80}, tcp.Options{})
		data := make([]byte, 200_000)
		rest := data
		push := func() {
			for len(rest) > 0 {
				n, err := c.Write(rest)
				if n == 0 || err != nil {
					return
				}
				rest = rest[n:]
			}
		}
		c.OnEstablished(push)
		c.OnWriteSpace(push)
		nw.RunFor(time.Minute)
		return srvBytes, c.Stats().SegsSent
	}
	b1, s1 := run()
	b2, s2 := run()
	if b1 != b2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", b1, s1, b2, s2)
	}
	if b1 == 0 {
		t.Fatal("no data moved")
	}
}
