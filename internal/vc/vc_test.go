package vc

import (
	"bytes"
	"testing"
	"time"

	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// lineVC builds h1 - s1 - s2 - h2.
func lineVC(seed int64, loss float64) (*sim.Kernel, *Network, *Host, *Host) {
	k := sim.NewKernel(seed)
	n := NewNetwork(k, phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500, Loss: loss})
	n.AddSwitch(100)
	n.AddSwitch(101)
	h1 := n.AddHost(1, 100)
	h2 := n.AddHost(2, 101)
	n.Connect(100, 101)
	n.ComputeRoutes()
	return k, n, h1, h2
}

func TestCallSetup(t *testing.T) {
	k, _, h1, h2 := lineVC(1, 0)
	var inbound *Circuit
	h2.Listen(func(c *Circuit) { inbound = c })
	opened := false
	h1.Dial(2, func(ok bool) { opened = ok })
	k.RunFor(time.Second)
	if !opened || inbound == nil {
		t.Fatalf("setup failed: opened=%v inbound=%v", opened, inbound)
	}
}

func TestSetupRefusedNoListener(t *testing.T) {
	k, _, h1, _ := lineVC(1, 0)
	result := true
	h1.Dial(2, func(ok bool) { result = ok })
	k.RunFor(time.Second)
	if result {
		t.Fatal("setup to non-listening host succeeded")
	}
}

func TestSetupNoRoute(t *testing.T) {
	k, _, h1, _ := lineVC(1, 0)
	result := true
	h1.Dial(99, func(ok bool) { result = ok })
	k.RunFor(time.Second)
	if result {
		t.Fatal("setup to unknown destination succeeded")
	}
}

func TestDataTransfer(t *testing.T) {
	k, _, h1, h2 := lineVC(1, 0)
	var got []byte
	h2.Listen(func(c *Circuit) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	})
	c := h1.Dial(2, func(ok bool) {})
	k.RunFor(time.Second)
	want := []byte("virtual circuits deliver in order")
	c.Send(want[:10])
	c.Send(want[10:])
	k.RunFor(time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestReliableDeliveryUnderLoss(t *testing.T) {
	k, _, h1, h2 := lineVC(5, 0.10)
	var got []byte
	h2.Listen(func(c *Circuit) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	})
	c := h1.Dial(2, func(ok bool) {})
	k.RunFor(5 * time.Second)
	var want []byte
	for i := 0; i < 100; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 100)
		want = append(want, chunk...)
		c.Send(chunk)
	}
	k.RunFor(2 * time.Minute)
	if !bytes.Equal(got, want) {
		t.Fatalf("lossy circuit corrupted: got %d want %d bytes", len(got), len(want))
	}
}

func TestSwitchCrashKillsCircuits(t *testing.T) {
	// The paper's survivability argument, measured from the other side:
	// circuit state lives in switches, so a switch crash resets the
	// conversation even though both endpoints are healthy.
	k, n, h1, h2 := lineVC(1, 0)
	h2.Listen(func(c *Circuit) {
		c.OnData(func([]byte) {})
	})
	c := h1.Dial(2, func(ok bool) {})
	k.RunFor(time.Second)
	if !c.Open() {
		t.Fatal("circuit not open")
	}
	down := false
	c.OnDown(func() { down = true })

	n.CrashSwitch(100)
	n.RestoreSwitch(100) // back up, but with amnesia
	c.Send([]byte("anyone there?"))
	k.RunFor(30 * time.Second)
	if !down {
		t.Fatal("circuit survived switch crash — in-network state cannot do that")
	}
	if c.Open() {
		t.Fatal("circuit still claims open")
	}
}

func TestSwitchCrashWithoutRestoreDetectedByARQ(t *testing.T) {
	k, n, h1, h2 := lineVC(1, 0)
	h2.Listen(func(c *Circuit) {})
	c := h1.Dial(2, func(ok bool) {})
	k.RunFor(time.Second)
	down := false
	c.OnDown(func() { down = true })
	n.CrashSwitch(100)
	c.Send([]byte("hello?")) // ARQ will retry and give up
	k.RunFor(time.Minute)
	if !down {
		t.Fatal("dead switch not detected by link ARQ")
	}
}

func TestTeardownFreesSwitchState(t *testing.T) {
	k, n, h1, h2 := lineVC(1, 0)
	h2.Listen(func(c *Circuit) {})
	c := h1.Dial(2, func(ok bool) {})
	k.RunFor(time.Second)
	s1 := n.Switch(100)
	if len(s1.circuits) == 0 {
		t.Fatal("no circuit state installed")
	}
	c.Close()
	k.RunFor(time.Second)
	if len(s1.circuits) != 0 {
		t.Fatalf("switch still holds %d circuit entries after teardown", len(s1.circuits))
	}
}

func TestMultipleCircuitsIndependent(t *testing.T) {
	k, _, h1, h2 := lineVC(1, 0)
	recv := make(map[byte][]byte)
	h2.Listen(func(c *Circuit) {
		c.OnData(func(b []byte) {
			if len(b) > 0 {
				recv[b[0]] = append(recv[b[0]], b[1:]...)
			}
		})
	})
	c1 := h1.Dial(2, nil)
	c2 := h1.Dial(2, nil)
	k.RunFor(time.Second)
	c1.Send([]byte{1, 'a', 'b'})
	c2.Send([]byte{2, 'x', 'y'})
	c1.Send([]byte{1, 'c'})
	k.RunFor(time.Second)
	if string(recv[1]) != "abc" || string(recv[2]) != "xy" {
		t.Fatalf("circuit crosstalk: %q %q", recv[1], recv[2])
	}
}

func TestLinkARQInOrderUnderLoss(t *testing.T) {
	// Drive the link layer directly: every message arrives exactly
	// once, in order, despite 20% loss. All but the first eight wait in
	// the window-full queue as built frames and are numbered when sent;
	// the circuit id carries the counter.
	k := sim.NewKernel(3)
	link := phys.NewP2P(k, "l", phys.Config{BitsPerSec: 1_000_000, Delay: time.Millisecond, MTU: 1500, Loss: 0.2})
	var got []int
	recvOwner := ownerFunc{
		deliver: func(_ *linkEnd, p []byte) { got = append(got, int(p[1])<<8|int(p[2])) },
	}
	sendOwner := ownerFunc{deliver: func(*linkEnd, []byte) {}}
	a := newLinkEnd(k, link.Attach("a"), sendOwner, 0)
	newLinkEnd(k, link.Attach("b"), recvOwner, 0)
	const total = 200
	for i := 0; i < total; i++ {
		a.send(msgData, uint16(i), nil)
	}
	k.RunFor(5 * time.Minute)
	if len(got) != total {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

// ownerFunc adapts functions to linkOwner.
type ownerFunc struct {
	deliver func(*linkEnd, []byte)
	dead    func(*linkEnd)
}

func (o ownerFunc) linkDeliver(l *linkEnd, p []byte) {
	if o.deliver != nil {
		o.deliver(l, p)
	}
}
func (o ownerFunc) linkDead(l *linkEnd) {
	if o.dead != nil {
		o.dead(l)
	}
}

func TestSeq8Wraparound(t *testing.T) {
	if !seq8LT(250, 5) || seq8LT(5, 250) {
		t.Fatal("8-bit wraparound comparison wrong")
	}
}

// TestRelayedMessageAllocs holds one data message across a three-switch
// path (h1 - s1 - s2 - s3 - h2, four reliable links) to its allocation
// count: two objects a link. The sending end builds one frame (ARQ
// header, circuit header and body in a single buffer); the receiving end
// answers with one three-byte RR. The pending window compacts in place
// and the retransmit timer's callback is bound once, so neither costs an
// allocation.
func TestRelayedMessageAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNetwork(k, phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500})
	for id := NodeID(100); id <= 102; id++ {
		n.AddSwitch(id)
	}
	h1, h2 := n.AddHost(1, 100), n.AddHost(2, 102)
	n.Connect(100, 101)
	n.Connect(101, 102)
	n.ComputeRoutes()
	received := 0
	h2.Listen(func(c *Circuit) { c.OnData(func(b []byte) { received += len(b) }) })
	c := h1.Dial(2, func(bool) {})
	k.RunFor(time.Second)
	msg := make([]byte, 512)
	if !c.Open() {
		t.Fatal("circuit did not open")
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.Send(msg)
		k.RunFor(time.Second)
	})
	if want := 51 * len(msg); received != want {
		t.Fatalf("received %d bytes, want %d", received, want)
	}
	if allocs != 8 {
		t.Fatalf("one relayed data message: %.0f allocations, want 8", allocs)
	}
}
