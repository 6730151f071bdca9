package tcp

import (
	"bytes"
	"testing"
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// quenchNet builds a topology with a real bottleneck: fast near link,
// slow far link with a tiny queue, so a bursting sender overflows the
// gateway and provokes source quench.
func quenchNet(seed int64) *testNet {
	k := sim.NewKernel(seed)
	near := phys.NewP2P(k, "near", phys.Config{BitsPerSec: 10_000_000, Delay: 2 * time.Millisecond, MTU: 1500, QueueLimit: 64})
	far := phys.NewP2P(k, "far", phys.Config{BitsPerSec: 128_000, Delay: 2 * time.Millisecond, MTU: 1500, QueueLimit: 8})
	return assembleTestNet(k, near, far)
}

func TestSourceQuenchThrottlesFlood(t *testing.T) {
	n := quenchNet(9)
	n.gw.EnableSourceQuench()
	opts := Options{
		ReactToSourceQuench: true,
		Congestion:          CCNaive,
		SendBufferSize:      131072,
		WindowSize:          65535,
	}
	var srv sink
	n.t2.Listen(80, opts, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
	data := pattern(300_000)
	c.OnEstablished(func() { pump(c, data, true) })
	n.k.RunFor(10 * time.Minute)
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("transfer incomplete: %d/%d", len(srv.data), len(data))
	}
	if c.Stats().SourceQuenches == 0 {
		t.Fatal("flood never provoked an honoured source quench")
	}
	// The quench response must have collapsed the window at least once:
	// cwnd never exceeds a small multiple of MSS right after a quench,
	// which shows indirectly as far fewer drops than the quench-deaf run
	// below measures.
}

func TestSourceQuenchIgnoredByDefault(t *testing.T) {
	n := quenchNet(9)
	n.gw.EnableSourceQuench()
	opts := Options{Congestion: CCNaive, SendBufferSize: 131072, WindowSize: 65535}
	var srv sink
	n.t2.Listen(80, opts, func(c *Conn) { srv.attach(c) })
	c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, opts)
	data := pattern(300_000)
	c.OnEstablished(func() { pump(c, data, true) })
	n.k.RunFor(5 * time.Minute)
	if c.Stats().SourceQuenches != 0 {
		t.Fatal("quench honoured despite option off")
	}
	if !bytes.Equal(srv.data, data) {
		t.Fatalf("transfer incomplete: %d/%d", len(srv.data), len(data))
	}
}

// BenchmarkBulkTransfer measures simulator throughput: wall time to carry
// 1 MB of TCP through a two-hop topology.
func BenchmarkBulkTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := newTestNet(nil, int64(i+1), 0)
		var srv sink
		n.t2.Listen(80, Options{}, func(c *Conn) { srv.attach(c) })
		c, _ := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{SendBufferSize: 65535})
		data := pattern(1 << 20)
		c.OnEstablished(func() { pump(c, data, true) })
		n.k.RunFor(time.Minute)
		if len(srv.data) != 1<<20 {
			b.Fatalf("incomplete: %d", len(srv.data))
		}
	}
	b.SetBytes(1 << 20)
}

// BenchmarkSegmentMarshal measures the wire codec.
func BenchmarkSegmentMarshal(b *testing.B) {
	s := segment{srcPort: 1, dstPort: 2, seq: 3, ack: 4, flags: flagACK, wnd: 8192, payload: make([]byte, 536)}
	src, dst := ipv4.AddrFrom4(1, 2, 3, 4), ipv4.AddrFrom4(5, 6, 7, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := s.marshal(src, dst)
		if _, err := parseSegment(src, dst, raw); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(536 + HeaderLen)
}
