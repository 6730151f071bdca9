package phys

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"darpanet/internal/packet"
	"darpanet/internal/sim"
)

// boundaryWorld wires two kernels with one boundary link and a shard
// group whose exchange drains both halves in fixed order.
func boundaryWorld(seedA, seedB int64, cfg Config, workers int) (*sim.ShardGroup, *Boundary, *Boundary, *NIC, *NIC) {
	ka, kb := sim.NewKernel(seedA), sim.NewKernel(seedB)
	ba, bb := NewBoundaryPair(ka, kb, "x0", cfg)
	na := ba.Attach("a.if0")
	nb := bb.Attach("b.if0")
	g := sim.NewShardGroup([]*sim.Kernel{ka, kb}, cfg.Delay, workers)
	g.SetExchange(func() { ba.Drain(); bb.Drain() })
	return g, ba, bb, na, nb
}

func TestBoundaryDeliveryTiming(t *testing.T) {
	cfg := Config{BitsPerSec: 1_000_000, Delay: 2 * time.Millisecond, MTU: 1500}
	g, _, _, na, nb := boundaryWorld(1, 2, cfg, 1)
	var at sim.Time
	var got []byte
	nb.SetReceiver(func(f Frame) {
		at = g.Kernels()[1].Now()
		got = append([]byte(nil), f.Payload...)
		f.Release()
	})
	// 1000 bytes at 1 Mb/s = 8 ms serialize; +2 ms propagation = 10 ms —
	// the same arithmetic a P2P link would give, crossing five epochs.
	g.Kernels()[0].At(0, func() { na.Send(nb.Addr(), make([]byte, 1000)) })
	g.RunFor(20 * time.Millisecond)
	if at != sim.Time(10*time.Millisecond) {
		t.Fatalf("arrival at %v, want 10ms", at)
	}
	if len(got) != 1000 {
		t.Fatalf("payload %d bytes", len(got))
	}
	if na.Stats().TxFrames != 1 || nb.Stats().RxFrames != 1 {
		t.Fatalf("stats: tx=%+v rx=%+v", na.Stats(), nb.Stats())
	}
}

func TestBoundaryFullDuplexAndPool(t *testing.T) {
	cfg := Config{BitsPerSec: 8_000_000, Delay: time.Millisecond, MTU: 1500}
	g, _, _, na, nb := boundaryWorld(1, 2, cfg, 1)
	poolA, poolB := packet.NewPool(), packet.NewPool()
	na.SetPool(poolA)
	nb.SetPool(poolB)
	var gotA, gotB int
	na.SetReceiver(func(f Frame) { gotA++; f.Release() })
	nb.SetReceiver(func(f Frame) { gotB++; f.Release() })
	ka, kb := g.Kernels()[0], g.Kernels()[1]
	for i := 0; i < 20; i++ {
		i := i
		ka.At(sim.Time(i)*sim.Time(100*time.Microsecond), func() {
			na.Send(nb.Addr(), poolA.Get(200))
		})
		kb.At(sim.Time(i)*sim.Time(130*time.Microsecond), func() {
			nb.Send(na.Addr(), poolB.Get(300))
		})
	}
	g.RunFor(50 * time.Millisecond)
	if gotA != 20 || gotB != 20 {
		t.Fatalf("delivered a=%d b=%d, want 20/20", gotA, gotB)
	}
	// Every buffer must have come home to its own kernel's pool: sends
	// released on re-pooling at the barrier, deliveries on receive.
	for name, p := range map[string]*packet.Pool{"a": poolA, "b": poolB} {
		st := p.Stats()
		if st.Gets != st.Puts {
			t.Fatalf("pool %s leaked: gets=%d puts=%d", name, st.Gets, st.Puts)
		}
	}
}

func TestBoundaryDownAndLossAccounting(t *testing.T) {
	cfg := Config{Delay: time.Millisecond, MTU: 1500}
	g, ba, bb, na, nb := boundaryWorld(1, 2, cfg, 1)
	nb.SetReceiver(func(f Frame) { f.Release() })
	ka := g.Kernels()[0]
	ba.SetDown(true)
	ka.At(0, func() { na.Send(nb.Addr(), []byte("dead")) })
	g.RunFor(5 * time.Millisecond)
	if ba.LostWhileDown() != 1 {
		t.Fatalf("lost_down = %d, want 1", ba.LostWhileDown())
	}
	// Peer-side down must also kill the frame (checked at the barrier).
	ba.SetDown(false)
	bb.SetDown(true)
	ka.At(ka.Now(), func() { na.Send(nb.Addr(), []byte("dead2")) })
	g.RunFor(5 * time.Millisecond)
	if ba.LostWhileDown() != 2 {
		t.Fatalf("lost_down = %d, want 2", ba.LostWhileDown())
	}
	bb.SetDown(false)
	ba.SetLoss(1.0)
	ka.At(ka.Now(), func() { na.Send(nb.Addr(), []byte("lossy")) })
	g.RunFor(5 * time.Millisecond)
	if nb.Stats().RxLost != 1 {
		t.Fatalf("rx_lost = %d, want 1", nb.Stats().RxLost)
	}
}

// boundaryTrace runs a deterministic cross-shard ping-pong and returns
// the delivery schedule, for comparison across worker counts.
func boundaryTrace(workers int) []string {
	cfg := Config{BitsPerSec: 2_000_000, Delay: 2 * time.Millisecond, MTU: 1500, Loss: 0.2, Jitter: 500 * time.Microsecond}
	g, _, _, na, nb := boundaryWorld(7, 11, cfg, workers)
	var trace []string
	na.SetReceiver(func(f Frame) {
		trace = append(trace, fmt.Sprintf("a@%d:%d", g.Kernels()[0].Now(), len(f.Payload)))
		f.Release()
		na.Send(nb.Addr(), make([]byte, 400))
	})
	nb.SetReceiver(func(f Frame) {
		trace = append(trace, fmt.Sprintf("b@%d:%d", g.Kernels()[1].Now(), len(f.Payload)))
		f.Release()
		nb.Send(na.Addr(), make([]byte, 300))
	})
	g.Kernels()[0].At(0, func() { na.Send(nb.Addr(), make([]byte, 100)) })
	g.Kernels()[0].At(sim.Time(3*time.Millisecond), func() { na.Send(nb.Addr(), make([]byte, 500)) })
	g.RunFor(200 * time.Millisecond)
	return trace
}

func TestBoundaryDeterministicAcrossWorkers(t *testing.T) {
	want := boundaryTrace(1)
	if len(want) == 0 {
		t.Fatal("trace empty")
	}
	if got := boundaryTrace(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=2 diverged:\n got %v\nwant %v", got, want)
	}
}

// TestBoundarySteadyStateAllocs pins the zero-allocation handoff: after
// warm-up, a sustained cross-boundary stream allocates nothing — not in
// the transmitter, not in the outbox, not in the peer wire's flights.
func TestBoundarySteadyStateAllocs(t *testing.T) {
	cfg := Config{BitsPerSec: 100_000_000, Delay: time.Millisecond, MTU: 1500}
	g, _, _, na, nb := boundaryWorld(1, 2, cfg, 1)
	pool := packet.NewPool()
	na.SetPool(pool)
	nb.SetPool(packet.NewPool())
	nb.SetReceiver(func(f Frame) { f.Release() })
	ka := g.Kernels()[0]
	var tick func()
	tick = func() {
		na.Send(nb.Addr(), pool.Get(512))
		ka.After(200*time.Microsecond, tick)
	}
	ka.At(0, tick)
	g.RunFor(20 * time.Millisecond) // warm-up: grow outbox, free lists, pools
	allocs := testing.AllocsPerRun(10, func() {
		g.RunFor(5 * time.Millisecond)
	})
	if allocs > 0 {
		t.Fatalf("boundary steady state allocates: %.1f allocs/run", allocs)
	}
}

// TestBoundaryExportsAtSerializationEnd pins the send side: the event
// that ends serialization parks the frame in the outbox itself, leaving
// the sending kernel nothing to run for it before the barrier.
func TestBoundaryExportsAtSerializationEnd(t *testing.T) {
	ka, kb := sim.NewKernel(1), sim.NewKernel(2)
	ba, bb := NewBoundaryPair(ka, kb, "x0", Config{BitsPerSec: 1_000_000, Delay: time.Millisecond})
	na, nb := ba.Attach("a.if0"), bb.Attach("b.if0")
	na.Send(nb.Addr(), make([]byte, 100))
	ka.Step()
	if pending, parked := ka.PendingEvents(), len(ba.outbox); pending != 0 || parked != 1 {
		t.Fatalf("after serialization: %d pending, %d parked; want 0 pending, 1 parked", pending, parked)
	}
}

// TestBoundaryLosesWhatP2PLoses holds the two point-to-point media to
// one loss-and-match rule: with the same configuration and the same
// receiving-side random stream, a boundary pair loses exactly the
// frames a P2P link loses.
func TestBoundaryLosesWhatP2PLoses(t *testing.T) {
	const frames = 200
	cfg := Config{BitsPerSec: 1_000_000, Delay: time.Millisecond, MTU: 1500, Loss: 0.3}
	send := func(k *sim.Kernel, from, to *NIC) {
		for i := range frames {
			k.At(sim.Time(i)*sim.Time(time.Millisecond), func() { from.Send(to.Addr(), []byte{byte(i)}) })
		}
	}
	record := func(n *NIC, got *[]byte) {
		n.SetReceiver(func(f Frame) {
			*got = append(*got, f.Payload[0])
			f.Release()
		})
	}

	k := sim.NewKernel(2)
	link := NewP2P(k, "p0", cfg)
	pa, pb := link.Attach("a.if0"), link.Attach("b.if0")
	var viaP2P []byte
	record(pb, &viaP2P)
	send(k, pa, pb)
	k.RunFor(frames * 2 * time.Millisecond)

	g, _, _, na, nb := boundaryWorld(1, 2, cfg, 1)
	var viaBoundary []byte
	record(nb, &viaBoundary)
	send(g.Kernels()[0], na, nb)
	g.RunFor(frames * 2 * time.Millisecond)

	if len(viaP2P) == 0 || len(viaP2P) == frames {
		t.Fatalf("P2P delivered %d of %d: the loss rule was not exercised", len(viaP2P), frames)
	}
	if !reflect.DeepEqual(viaBoundary, viaP2P) {
		t.Fatalf("boundary delivered %d frames %v,\nP2P %d frames %v", len(viaBoundary), viaBoundary, len(viaP2P), viaP2P)
	}
	if lb, lp := nb.Stats().RxLost, pb.Stats().RxLost; lb != lp {
		t.Fatalf("rx_lost: boundary %d, P2P %d", lb, lp)
	}
}
