package xnet

import (
	"testing"
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

func debugPair(seed int64, loss float64) (*sim.Kernel, *Client, *Target, ipv4.Addr) {
	k := sim.NewKernel(seed)
	link := phys.NewP2P(k, "l", phys.Config{BitsPerSec: 56_000, Delay: 10 * time.Millisecond, MTU: 576, Loss: loss})
	net := ipv4.MustParsePrefix("10.0.0.0/24")
	a := stack.NewNode(k, "debugger")
	b := stack.NewNode(k, "target")
	ia := a.AttachInterface(link, net.Host(1), net)
	ib := b.AttachInterface(link, net.Host(2), net)
	ia.AddNeighbor(ib.Addr, ib.NIC.Addr())
	ib.AddNeighbor(ia.Addr, ia.NIC.Addr())
	return k, NewClient(a), NewTarget(b, 4096), b.Addr()
}

func TestPeek(t *testing.T) {
	k, cli, tgt, addr := debugPair(1, 0)
	copy(tgt.memory[100:], "crashed state")
	var got []byte
	cli.Peek(addr, 100, 13, func(p []byte, err error) {
		if err != nil {
			t.Errorf("peek: %v", err)
		}
		got = p
	})
	k.RunFor(time.Second)
	if string(got) != "crashed state" {
		t.Fatalf("peek got %q", got)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	k, cli, _, addr := debugPair(1, 0)
	var gotErr error
	cli.Peek(addr, 4000, 500, func(_ []byte, err error) { gotErr = err })
	k.RunFor(time.Second)
	if gotErr != ErrRemote {
		t.Fatalf("err = %v, want ErrRemote", gotErr)
	}
}

func TestRetriesThroughLoss(t *testing.T) {
	k, cli, tgt, addr := debugPair(7, 0.4)
	copy(tgt.memory[0:], "persistent")
	ok := 0
	for i := 0; i < 20; i++ {
		cli.Peek(addr, 0, 10, func(p []byte, err error) {
			if err == nil && string(p) == "persistent" {
				ok++
			}
		})
	}
	k.RunFor(time.Minute)
	if ok < 18 { // 40% loss, 5 retries: failures should be rare
		t.Fatalf("only %d/20 peeks succeeded", ok)
	}
	if cli.Resent == 0 {
		t.Fatal("no retransmissions under 40%% loss")
	}
}

func TestTimeoutWhenDead(t *testing.T) {
	k, cli, _, addr := debugPair(1, 1.0) // total loss
	var gotErr error
	cli.Peek(addr, 0, 1, func(_ []byte, err error) { gotErr = err })
	k.RunFor(time.Minute)
	if gotErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if cli.Failures != 1 {
		t.Fatalf("failures = %d", cli.Failures)
	}
}

func TestTargetStateless(t *testing.T) {
	// The target keeps no per-client state: interleaved clients with
	// colliding request ids are fine because replies are matched at the
	// client by (id, source address).
	k := sim.NewKernel(2)
	bus := phys.NewBus(k, "lan", phys.Config{MTU: 1500})
	net := ipv4.MustParsePrefix("10.0.0.0/24")
	mk := func(name string, host int) *stack.Node {
		n := stack.NewNode(k, name)
		n.AttachInterface(bus, net.Host(host), net)
		return n
	}
	tgtNode := mk("tgt", 1)
	tgt := NewTarget(tgtNode, 128)
	copy(tgt.memory, "shared")
	c1 := NewClient(mk("c1", 2))
	c2 := NewClient(mk("c2", 3))
	got := 0
	for _, c := range []*Client{c1, c2} {
		c.Peek(tgtNode.Addr(), 0, 6, func(p []byte, err error) {
			if err == nil && string(p) == "shared" {
				got++
			}
		})
	}
	k.RunFor(time.Second)
	if got != 2 {
		t.Fatalf("clients served = %d, want 2", got)
	}
	if tgt.Served != 2 {
		t.Fatalf("target served = %d", tgt.Served)
	}
}
