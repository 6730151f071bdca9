package phys

import (
	"testing"
	"time"

	"darpanet/internal/metrics"
	"darpanet/internal/sim"
)

func TestP2PDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{BitsPerSec: 8_000_000, Delay: time.Millisecond, MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	var got []byte
	b.SetReceiver(func(f Frame) { got = f.Payload })
	a.Send(b.Addr(), []byte("hello"))
	k.Run()
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if a.Stats().TxFrames != 1 || b.Stats().RxFrames != 1 {
		t.Fatal("stats wrong")
	}
}

func TestP2PTiming(t *testing.T) {
	k := sim.NewKernel(1)
	// 1000 bytes at 1 Mb/s = 8 ms serialize; +2 ms propagation = 10 ms.
	link := NewP2P(k, "l0", Config{BitsPerSec: 1_000_000, Delay: 2 * time.Millisecond, MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	var at sim.Time
	b.SetReceiver(func(f Frame) { at = k.Now() })
	a.Send(b.Addr(), make([]byte, 1000))
	k.Run()
	if at != sim.Time(10*time.Millisecond) {
		t.Fatalf("arrival at %v, want 10ms", at)
	}
}

func TestP2PSerializationQueueing(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{BitsPerSec: 1_000_000, MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	var arrivals []sim.Time
	b.SetReceiver(func(f Frame) { arrivals = append(arrivals, k.Now()) })
	// Two back-to-back 1000-byte frames: second must wait for the first.
	a.Send(b.Addr(), make([]byte, 1000))
	a.Send(b.Addr(), make([]byte, 1000))
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if arrivals[0] != sim.Time(8*time.Millisecond) || arrivals[1] != sim.Time(16*time.Millisecond) {
		t.Fatalf("arrivals = %v", arrivals)
	}
}

func TestP2PQueueOverflow(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{BitsPerSec: 1_000_000, MTU: 1500, QueueLimit: 2})
	a := link.Attach("a")
	b := link.Attach("b")
	n := 0
	b.SetReceiver(func(f Frame) { n++ })
	for i := 0; i < 10; i++ {
		a.Send(b.Addr(), make([]byte, 100))
	}
	k.Run()
	// 1 in flight + 2 queued = 3 delivered, 7 dropped.
	if n != 3 {
		t.Fatalf("delivered = %d, want 3", n)
	}
	if link.Drops != 7 || a.Stats().TxDrops != 7 {
		t.Fatalf("drops = %d/%d, want 7", link.Drops, a.Stats().TxDrops)
	}
}

func TestP2PFullDuplex(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{BitsPerSec: 1_000_000, MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	var atA, atB sim.Time
	a.SetReceiver(func(f Frame) { atA = k.Now() })
	b.SetReceiver(func(f Frame) { atB = k.Now() })
	a.Send(b.Addr(), make([]byte, 1000))
	b.Send(a.Addr(), make([]byte, 1000))
	k.Run()
	// Directions do not contend: both arrive at 8 ms.
	if atA != atB || atA != sim.Time(8*time.Millisecond) {
		t.Fatalf("duplex contention: %v %v", atA, atB)
	}
}

func TestP2PDown(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	n := 0
	b.SetReceiver(func(f Frame) { n++ })
	link.SetDown(true)
	a.Send(b.Addr(), []byte("x"))
	k.Run()
	link.SetDown(false)
	a.Send(b.Addr(), []byte("y"))
	k.Run()
	if n != 1 {
		t.Fatalf("delivered = %d, want 1", n)
	}
}

func TestNICDown(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	n := 0
	b.SetReceiver(func(f Frame) { n++ })
	b.SetUp(false)
	a.Send(b.Addr(), []byte("x"))
	k.Run()
	if n != 0 {
		t.Fatal("down NIC received")
	}
	a.SetUp(false)
	a.Send(b.Addr(), []byte("x"))
	k.Run()
	if a.Stats().TxFrames != 1 {
		t.Fatal("down NIC transmitted")
	}
}

func TestP2PLoss(t *testing.T) {
	k := sim.NewKernel(7)
	link := NewP2P(k, "l0", Config{MTU: 1500, Loss: 0.5, QueueLimit: 20000})
	a := link.Attach("a")
	b := link.Attach("b")
	n := 0
	b.SetReceiver(func(f Frame) { n++ })
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(b.Addr(), []byte("x"))
	}
	k.Run()
	if n < total*4/10 || n > total*6/10 {
		t.Fatalf("delivered %d of %d at 50%% loss", n, total)
	}
	if b.Stats().RxLost != uint64(total-n) {
		t.Fatalf("RxLost = %d, want %d", b.Stats().RxLost, total-n)
	}
}

func TestP2PThirdAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on third attach")
		}
	}()
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{})
	link.Attach("a")
	link.Attach("b")
	link.Attach("c")
}

func TestOversizePayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on oversize payload")
		}
	}()
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{MTU: 100})
	a := link.Attach("a")
	link.Attach("b")
	a.Send(2, make([]byte, 101))
}

func TestBusUnicastAndBroadcast(t *testing.T) {
	k := sim.NewKernel(1)
	bus := NewBus(k, "lan0", Config{MTU: 1500})
	var nics []*NIC
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		n := bus.Attach("h")
		n.SetReceiver(func(f Frame) { counts[i]++ })
		nics = append(nics, n)
	}
	nics[0].Send(nics[2].Addr(), []byte("unicast"))
	k.Run()
	if counts[2] != 1 || counts[1] != 0 || counts[3] != 0 || counts[0] != 0 {
		t.Fatalf("unicast counts = %v", counts)
	}
	nics[0].Send(Broadcast, []byte("bcast"))
	k.Run()
	if counts[0] != 0 || counts[1] != 1 || counts[2] != 2 || counts[3] != 1 {
		t.Fatalf("broadcast counts = %v", counts)
	}
}

func TestBusBroadcastPayloadsIndependent(t *testing.T) {
	k := sim.NewKernel(1)
	bus := NewBus(k, "lan0", Config{MTU: 1500})
	a := bus.Attach("a")
	b := bus.Attach("b")
	c := bus.Attach("c")
	var gotB, gotC []byte
	b.SetReceiver(func(f Frame) { gotB = f.Payload })
	c.SetReceiver(func(f Frame) { gotC = f.Payload })
	a.Send(Broadcast, []byte("xx"))
	k.Run()
	gotB[0] = 'z'
	if gotC[0] != 'x' {
		t.Fatal("broadcast receivers alias one payload")
	}
}

func TestBusSharedTransmitter(t *testing.T) {
	k := sim.NewKernel(1)
	bus := NewBus(k, "lan0", Config{BitsPerSec: 1_000_000, MTU: 1500})
	a := bus.Attach("a")
	b := bus.Attach("b")
	c := bus.Attach("c")
	var arrivals []sim.Time
	c.SetReceiver(func(f Frame) { arrivals = append(arrivals, k.Now()) })
	// a and b transmit simultaneously: the bus serializes them.
	a.Send(c.Addr(), make([]byte, 1000))
	b.Send(c.Addr(), make([]byte, 1000))
	k.Run()
	if len(arrivals) != 2 || arrivals[0] == arrivals[1] {
		t.Fatalf("bus did not serialize: %v", arrivals)
	}
}

// TestRadioLossAndJitter runs a packet-radio net's properties — small
// MTU, high independent loss, per-frame jitter — on the Bus that carries
// them.
func TestRadioLossAndJitter(t *testing.T) {
	k := sim.NewKernel(11)
	radio := NewBus(k, "pr0", Config{MTU: 576, Loss: 0.2, Jitter: 5 * time.Millisecond, QueueLimit: 20000})
	a := radio.Attach("a")
	b := radio.Attach("b")
	n := 0
	b.SetReceiver(func(f Frame) { n++ })
	const total = 1000
	for i := 0; i < total; i++ {
		a.Send(b.Addr(), []byte("x"))
	}
	k.Run()
	if n < 700 || n > 900 {
		t.Fatalf("delivered %d of %d at 20%% loss", n, total)
	}
}

func TestPriorityQdisc(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{BitsPerSec: 1_000_000, MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	// Band = first payload byte.
	a.SetQdisc(NewPriority(4, 10, func(p []byte) int { return int(p[0]) }))
	var order []byte
	b.SetReceiver(func(f Frame) { order = append(order, f.Payload[0]) })
	// First frame starts transmitting immediately; the rest queue.
	a.Send(b.Addr(), []byte{0, 0})
	a.Send(b.Addr(), []byte{1, 1})
	a.Send(b.Addr(), []byte{3, 3})
	a.Send(b.Addr(), []byte{2, 2})
	a.Send(b.Addr(), []byte{3, 30})
	k.Run()
	want := []byte{0, 3, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueLenAccessor(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{BitsPerSec: 1000, MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	b.SetReceiver(func(Frame) {})
	for i := 0; i < 5; i++ {
		a.Send(b.Addr(), make([]byte, 100))
	}
	if a.QueueLen() != 4 {
		t.Fatalf("QueueLen = %d, want 4", a.QueueLen())
	}
	k.Run()
	if a.QueueLen() != 0 {
		t.Fatal("queue not drained")
	}
}

// TestPriorityBandCounters checks that each band counts its own
// enqueues and tail drops, and that RegisterMetrics exposes them.
func TestPriorityBandCounters(t *testing.T) {
	k := sim.NewKernel(1)
	link := NewP2P(k, "l0", Config{BitsPerSec: 1_000_000, MTU: 1500})
	a := link.Attach("a")
	b := link.Attach("b")
	q := NewPriority(2, 2, func(p []byte) int { return int(p[0]) })
	a.SetQdisc(q)
	b.SetReceiver(func(Frame) {})
	// First send transmits immediately (bypasses the queue); then fill
	// band 1 past its 2-slot capacity and put one frame in band 0.
	a.Send(b.Addr(), []byte{0, 0})
	for i := 0; i < 4; i++ {
		a.Send(b.Addr(), []byte{1, byte(i)})
	}
	a.Send(b.Addr(), []byte{0, 9})
	if got := q.BandStats(1); got.Enqueues != 2 || got.Drops != 2 {
		t.Fatalf("band 1 = %+v, want 2 enqueues 2 drops", got)
	}
	if got := q.BandStats(0); got.Enqueues != 1 || got.Drops != 0 {
		t.Fatalf("band 0 = %+v, want 1 enqueue 0 drops", got)
	}
	reg := metrics.For(k)
	q.RegisterMetrics(reg, "a")
	snap := reg.Snapshot()
	for path, want := range map[string]uint64{
		"a/qdisc/band0_enqueues": 1,
		"a/qdisc/band0_drops":    0,
		"a/qdisc/band1_enqueues": 2,
		"a/qdisc/band1_drops":    2,
	} {
		if v, ok := snap.Get(path); !ok || v != want {
			t.Errorf("%s = %d (present=%v), want %d", path, v, ok, want)
		}
	}
	k.Run()
}
