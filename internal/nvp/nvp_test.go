package nvp

import (
	"testing"
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

func voicePair(seed int64, cfg phys.Config) (*sim.Kernel, *stack.Node, *stack.Node) {
	k := sim.NewKernel(seed)
	link := phys.NewP2P(k, "l", cfg)
	net := ipv4.MustParsePrefix("10.0.0.0/24")
	a := stack.NewNode(k, "a")
	b := stack.NewNode(k, "b")
	ia := a.AttachInterface(link, net.Host(1), net)
	ib := b.AttachInterface(link, net.Host(2), net)
	ia.AddNeighbor(ib.Addr, ib.NIC.Addr())
	ib.AddNeighbor(ia.Addr, ia.NIC.Addr())
	return k, a, b
}

func TestCleanPathAllOnTime(t *testing.T) {
	k, a, b := voicePair(1, phys.Config{BitsPerSec: 1_544_000, Delay: 20 * time.Millisecond, MTU: 1500})
	r := NewReceiver(b, 1)
	s := NewSender(a, b.Addr(), 1)
	s.Start(2 * time.Second)
	k.RunFor(3 * time.Second)
	st := r.Stats()
	if st.Received != s.Sent || s.Sent == 0 {
		t.Fatalf("received %d of %d", st.Received, s.Sent)
	}
	if st.Late != 0 || st.Lost != 0 {
		t.Fatalf("clean path: late=%d lost=%d", st.Late, st.Lost)
	}
	if st.MeanDelay() < 20*time.Millisecond || st.MeanDelay() > 30*time.Millisecond {
		t.Fatalf("mean delay %v", st.MeanDelay())
	}
}

func TestLossIsAcceptedNotRetransmitted(t *testing.T) {
	k, a, b := voicePair(3, phys.Config{BitsPerSec: 1_544_000, Delay: 10 * time.Millisecond, MTU: 1500, Loss: 0.15})
	r := NewReceiver(b, 1)
	s := NewSender(a, b.Addr(), 1)
	s.Start(5 * time.Second)
	k.RunFor(6 * time.Second)
	st := r.Stats()
	if st.Lost == 0 {
		t.Fatal("no loss recorded on lossy path")
	}
	// Nothing is ever retransmitted: received+lost == sent exactly.
	if st.Received+st.Lost != s.Sent {
		t.Fatalf("accounting: received %d + lost %d != sent %d", st.Received, st.Lost, s.Sent)
	}
	if st.Duplicate != 0 {
		t.Fatal("duplicates on a simplex path?")
	}
}

func TestLateFramesDropped(t *testing.T) {
	// Jitter beyond the playout budget: late frames are dropped, not
	// played late.
	k, a, b := voicePair(5, phys.Config{BitsPerSec: 1_544_000, Delay: 10 * time.Millisecond, Jitter: 200 * time.Millisecond, MTU: 1500})
	r := NewReceiver(b, 1)
	r.PlayoutDelay = 60 * time.Millisecond
	s := NewSender(a, b.Addr(), 1)
	s.Start(5 * time.Second)
	k.RunFor(7 * time.Second)
	st := r.Stats()
	if st.Late == 0 {
		t.Fatal("no late frames under heavy jitter")
	}
	if st.OnTime+st.Late != st.Received {
		t.Fatal("on-time + late != received")
	}
}

func TestStreamDemuxByID(t *testing.T) {
	k, a, b := voicePair(1, phys.Config{BitsPerSec: 10_000_000, MTU: 1500})
	r1 := NewReceiver(b, 1)
	s2 := NewSender(a, b.Addr(), 2) // different stream id
	s2.Start(time.Second)
	k.RunFor(2 * time.Second)
	if r1.Stats().Received != 0 {
		t.Fatal("receiver accepted frames for another stream")
	}
	_ = r1
}

func TestCongestedFIFOvsPriorityQueue(t *testing.T) {
	// Voice sharing a slow link with bulk junk: without ToS priority
	// queueing many frames miss their deadline; with it, almost none.
	run := func(prio bool) float64 {
		k := sim.NewKernel(9)
		cfg := phys.Config{BitsPerSec: 256_000, Delay: 5 * time.Millisecond, MTU: 1500, QueueLimit: 50}
		link := phys.NewP2P(k, "l", cfg)
		net := ipv4.MustParsePrefix("10.0.0.0/24")
		a := stack.NewNode(k, "a")
		b := stack.NewNode(k, "b")
		ia := a.AttachInterface(link, net.Host(1), net)
		ib := b.AttachInterface(link, net.Host(2), net)
		ia.AddNeighbor(ib.Addr, ib.NIC.Addr())
		ib.AddNeighbor(ia.Addr, ia.NIC.Addr())
		if prio {
			ia.NIC.SetQdisc(phys.NewPriority(8, 50, func(p []byte) int {
				if len(p) >= 2 && p[0]>>4 == 4 {
					return ipv4.Precedence(p[1])
				}
				return 0
			}))
		}
		// Bulk junk at routine precedence, saturating the link.
		junk := make([]byte, 1000)
		b.RegisterProtocol(250, func(ipv4.Header, []byte) {})
		var flood func()
		flood = func() {
			a.Send(ipv4.Header{Dst: b.Addr(), Proto: 250}, junk)
			k.After(5*time.Millisecond, flood) // ~1.6 Mb/s offered to a 256 kb/s link
		}
		flood()

		r := NewReceiver(b, 1)
		r.PlayoutDelay = 150 * time.Millisecond
		s := NewSender(a, b.Addr(), 1)
		s.TOS = ipv4.PrecCritical | ipv4.TOSLowDelay
		s.Start(5 * time.Second)
		k.RunFor(7 * time.Second)
		st := r.Stats()
		missed := float64(st.Late+st.Lost) / float64(s.Sent)
		return missed
	}
	fifoMiss := run(false)
	prioMiss := run(true)
	if prioMiss >= fifoMiss {
		t.Fatalf("priority queueing did not help voice: fifo=%.2f prio=%.2f", fifoMiss, prioMiss)
	}
	if prioMiss > 0.05 {
		t.Fatalf("prioritized voice still missing %.2f of deadlines", prioMiss)
	}
}
