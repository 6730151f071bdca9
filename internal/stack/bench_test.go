package stack

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// benchTopo builds h1 -- gw -- h2 over infinitely fast, zero-delay links
// so the benchmark measures stack cost, not simulated transmission time.
// A raw protocol handler on h2 counts deliveries.
func benchTopo() (*sim.Kernel, *Node, *Node, *uint64) { return benchTopoMTU(1500) }

// benchTopoMTU is benchTopo with the gateway's far link at the given MTU.
func benchTopoMTU(farMTU int) (*sim.Kernel, *Node, *Node, *uint64) {
	k := sim.NewKernel(1)
	l1 := phys.NewP2P(k, "l1", phys.Config{MTU: 1500})
	l2 := phys.NewP2P(k, "l2", phys.Config{MTU: farMTU})

	h1 := NewNode(k, "h1")
	gw := NewNode(k, "gw")
	gw.Forwarding = true
	h2 := NewNode(k, "h2")

	net1 := ipv4.MustParsePrefix("10.0.1.0/24")
	net2 := ipv4.MustParsePrefix("10.0.2.0/24")
	i1 := h1.AttachInterface(l1, net1.Host(1), net1)
	g1 := gw.AttachInterface(l1, net1.Host(254), net1)
	g2 := gw.AttachInterface(l2, net2.Host(254), net2)
	i2 := h2.AttachInterface(l2, net2.Host(1), net2)
	i1.AddNeighbor(g1.Addr, g1.NIC.Addr())
	g1.AddNeighbor(i1.Addr, i1.NIC.Addr())
	g2.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(g2.Addr, g2.NIC.Addr())
	h1.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g1.Addr, IfIndex: 0, Source: SourceStatic})
	h2.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g2.Addr, IfIndex: 0, Source: SourceStatic})

	var delivered uint64
	h2.RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	return k, h1, h2, &delivered
}

// BenchmarkForwardHotPath measures the full send -> forward -> deliver
// path across a gateway: serialize at h1, transmit, relay in place at gw,
// deliver and release at h2. The benchguard baseline pins this at
// 0 allocs/op — the tentpole property of the pooled datagram path.
func BenchmarkForwardHotPath(b *testing.B) {
	k, h1, h2, delivered := benchTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: h2.Addr(), Proto: 200}

	// Warm the pool, event slabs, qdiscs and flight free lists.
	for i := 0; i < 64; i++ {
		if err := h1.Send(hdr, payload); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	b.StopTimer()
	if *delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", *delivered, 64+b.N)
	}
}

// TestForwardHotPathZeroAlloc enforces the benchmark's claim in a plain
// test so `go test` alone catches a regression, not only the bench gate.
func TestForwardHotPathZeroAlloc(t *testing.T) {
	k, h1, h2, delivered := benchTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: h2.Addr(), Proto: 200}
	for i := 0; i < 64; i++ {
		if err := h1.Send(hdr, payload); err != nil {
			t.Fatal(err)
		}
		k.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		h1.Send(hdr, payload)
		k.Run()
	})
	if avg != 0 {
		t.Fatalf("forwarding hot path allocates %.1f objects per datagram, want 0", avg)
	}
	if *delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// fragmentingPath is the "varieties of networks" path: h1 sends a
// full-size datagram over its MTU-1500 net, gw cuts it into seven
// fragments for the MTU-256 net beyond, and h2 — only the destination
// host — reassembles. The returned func sends one datagram end to end.
func fragmentingPath(t testing.TB) (send func(), delivered *uint64, h2 *Node) {
	k, h1, h2, delivered := benchTopoMTU(256)
	payload := make([]byte, 1480)
	hdr := ipv4.Header{Dst: h2.Addr(), Proto: 200}
	send = func() {
		h1.Send(hdr, payload)
		k.Run()
	}
	// Warm the pool, event slabs, flight free lists and the reassembler's
	// group free list.
	for i := 0; i < 64; i++ {
		send()
	}
	if *delivered != 64 || h2.Reassembler().Stats().Fragments != 64*7 {
		t.Fatalf("warm-up delivered %d datagrams from %d fragments, want 64 from 448",
			*delivered, h2.Reassembler().Stats().Fragments)
	}
	return send, delivered, h2
}

// BenchmarkFragmentForwardReassemble pins the fragmenting path at
// 0 allocs/op (benchguard baseline): the cursor in forward, the pooled
// fragment images and the reassembler's recycled groups.
func BenchmarkFragmentForwardReassemble(b *testing.B) {
	send, delivered, h2 := fragmentingPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if *delivered != uint64(64+b.N) || h2.Reassembler().Pending() != 0 {
		b.Fatalf("delivered %d of %d, %d groups pending", *delivered, 64+b.N, h2.Reassembler().Pending())
	}
}

// TestFragmentForwardReassembleZeroAlloc is the benchmark's claim as a
// plain test.
func TestFragmentForwardReassembleZeroAlloc(t *testing.T) {
	send, _, _ := fragmentingPath(t)
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("fragment -> forward -> reassemble allocates %.1f objects per datagram, want 0", avg)
	}
}

// benchREDTopo is benchTopo with a rate-limited egress trunk and RED on
// the gateway. On benchTopo's infinitely fast links the transmitter is
// never busy, so the qdisc is never consulted; here h1's bursts pile up
// behind gw's 8 Mb/s trunk and every queued frame runs the policy's
// EWMA update and early-drop decision.
func benchREDTopo() (*sim.Kernel, *Node, []*phys.PolicyQdisc, *uint64) {
	k := sim.NewKernel(1)
	l1 := phys.NewP2P(k, "l1", phys.Config{MTU: 1500})
	l2 := phys.NewP2P(k, "l2", phys.Config{MTU: 1500, BitsPerSec: 8_000_000})

	h1 := NewNode(k, "h1")
	gw := NewNode(k, "gw")
	gw.Forwarding = true
	h2 := NewNode(k, "h2")

	net1 := ipv4.MustParsePrefix("10.0.1.0/24")
	net2 := ipv4.MustParsePrefix("10.0.2.0/24")
	i1 := h1.AttachInterface(l1, net1.Host(1), net1)
	g1 := gw.AttachInterface(l1, net1.Host(254), net1)
	g2 := gw.AttachInterface(l2, net2.Host(254), net2)
	i2 := h2.AttachInterface(l2, net2.Host(1), net2)
	i1.AddNeighbor(g1.Addr, g1.NIC.Addr())
	g1.AddNeighbor(i1.Addr, i1.NIC.Addr())
	g2.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(g2.Addr, g2.NIC.Addr())
	h1.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g1.Addr, IfIndex: 0, Source: SourceStatic})
	h2.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g2.Addr, IfIndex: 0, Source: SourceStatic})

	// Wq=1 tracks the burst depth instantly, so the thresholds bite
	// within a single burst and the probabilistic branch really runs.
	qs := gw.InstallQueuePolicy(128, phys.PolicySpec{
		Kind: phys.PolicyRED, MinTh: 16, MaxTh: 64, MaxP: 0.1, Wq: 1})

	var delivered uint64
	h2.RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	return k, h1, qs, &delivered
}

const redBurst = 32

// redConservation asserts every datagram offered was either delivered
// or accounted as a policy drop — RED drops by design, so conservation
// replaces the exact delivery count of the drop-free benchmarks.
func redConservation(t testing.TB, qs []*phys.PolicyQdisc, delivered, sent uint64) {
	t.Helper()
	drops := uint64(0)
	for _, q := range qs {
		st := q.Stats()
		drops += st.TailDrops + st.EarlyDrops
	}
	if delivered+drops != sent {
		t.Fatalf("conservation: delivered %d + dropped %d != sent %d", delivered, drops, sent)
	}
	if drops == 0 {
		t.Fatal("RED never dropped: the policy branch was not exercised")
	}
}

// BenchmarkForwardHotPathREDPolicy measures the forwarding path through
// a congested RED gateway: each iteration bursts 32 datagrams into the
// rate-limited trunk, so most of them traverse PolicyQdisc.Enqueue —
// EWMA update, drop-probability ramp, rng coin flip — before the kernel
// drains the queue. The benchguard baseline pins this at 0 allocs/op:
// the policy layer must not cost the pooled datagram path its tentpole
// property.
func BenchmarkForwardHotPathREDPolicy(b *testing.B) {
	k, h1, qs, delivered := benchREDTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: ipv4.MustParsePrefix("10.0.2.0/24").Host(1), Proto: 200}

	for i := 0; i < 64; i++ {
		for j := 0; j < redBurst; j++ {
			if err := h1.Send(hdr, payload); err != nil {
				b.Fatal(err)
			}
		}
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < redBurst; j++ {
			h1.Send(hdr, payload)
		}
		k.Run()
	}
	b.StopTimer()
	redConservation(b, qs, *delivered, uint64(64+b.N)*redBurst)
}

// TestForwardHotPathREDZeroAlloc enforces the RED benchmark's claim in
// a plain test, like TestForwardHotPathZeroAlloc does for drop-tail.
func TestForwardHotPathREDZeroAlloc(t *testing.T) {
	k, h1, qs, delivered := benchREDTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: ipv4.MustParsePrefix("10.0.2.0/24").Host(1), Proto: 200}
	rounds := uint64(64)
	for i := 0; i < 64; i++ {
		for j := 0; j < redBurst; j++ {
			if err := h1.Send(hdr, payload); err != nil {
				t.Fatal(err)
			}
		}
		k.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		for j := 0; j < redBurst; j++ {
			h1.Send(hdr, payload)
		}
		k.Run()
		rounds++
	})
	if avg != 0 {
		t.Fatalf("RED forwarding path allocates %.1f objects per burst, want 0", avg)
	}
	redConservation(t, qs, *delivered, rounds*redBurst)
}

// BenchmarkSingleHopSend measures origination + local delivery without a
// gateway in between (two hosts, one link).
func BenchmarkSingleHopSend(b *testing.B) {
	k := sim.NewKernel(1)
	l := phys.NewP2P(k, "l", phys.Config{MTU: 1500})
	net := ipv4.MustParsePrefix("10.0.1.0/24")
	h1 := NewNode(k, "h1")
	h2 := NewNode(k, "h2")
	i1 := h1.AttachInterface(l, net.Host(1), net)
	i2 := h2.AttachInterface(l, net.Host(2), net)
	i1.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(i1.Addr, i1.NIC.Addr())
	var delivered uint64
	h2.RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: i2.Addr, Proto: 200}
	for i := 0; i < 64; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	b.StopTimer()
	if delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", delivered, 64+b.N)
	}
}

// TestPoolRecyclesForwardBuffers pins the mechanism, not just the absence
// of allocation: after warmup every datagram is served from the free list.
func TestPoolRecyclesForwardBuffers(t *testing.T) {
	k, h1, h2, _ := benchTopo()
	pool := PoolFor(k)
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: h2.Addr(), Proto: 200}
	for i := 0; i < 16; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	before := pool.Stats()
	for i := 0; i < 100; i++ {
		h1.Send(hdr, payload)
		k.Run()
	}
	after := pool.Stats()
	if misses := after.Misses - before.Misses; misses != 0 {
		t.Fatalf("steady state had %d pool misses, want 0", misses)
	}
	// Free-list invariant: every buffer returned (and not discarded) is
	// either on a free list or handed out again.
	if got, want := uint64(pool.Free()), after.Puts-after.Discards-after.Hits; got != want {
		t.Fatalf("free-list accounting off: free=%d, puts-discards-hits=%d", got, want)
	}
	// With the kernel drained, no buffer is in flight: every buffer drawn
	// came back.
	if after.Gets != after.Puts || after.Puts == 0 {
		t.Fatalf("buffers in flight after drain: gets=%d puts=%d", after.Gets, after.Puts)
	}
}

// BenchmarkRouteLookupLarge measures the forwarding decision on a
// transit gateway of the 2000-gateway internet: 3 800 /24 routes, every
// lookup a hit on a seeded-random destination. The benchguard baseline
// pins it at 0 allocs/op.
func BenchmarkRouteLookupLarge(b *testing.B) {
	routes, dsts := e16ShapedRoutes(3800)
	rand.New(rand.NewSource(1988)).Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
	var tbl RouteTable
	tbl.AddBatch(routes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := tbl.Lookup(dsts[i%len(dsts)])
		if !ok {
			b.Fatal("lookup missed")
		}
		routeSink += r.IfIndex
	}
}

// BenchmarkRouteLookupBlocks measures the forwarding decision on the
// table a transit gateway of the 2000-gateway internet holds since the
// static-route oracle covers runs of nets with blocks (blockRoutes: 82
// routes of 11 prefix lengths, a default among them), every lookup a hit
// on a seeded-random host address. The benchguard baseline pins it at
// 0 allocs/op.
func BenchmarkRouteLookupBlocks(b *testing.B) {
	routes, dsts := blockRoutes()
	rand.New(rand.NewSource(1988)).Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
	var tbl RouteTable
	tbl.AddBatch(routes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := tbl.Lookup(dsts[i%len(dsts)])
		if !ok {
			b.Fatal("lookup missed")
		}
		routeSink += r.IfIndex
	}
}

// BenchmarkRouteLookupDownInterface measures the fall-through lookup: a
// node whose interface 1 is down, and every destination's longest
// covering prefix leaving by it, so that a shorter prefix out of an
// interface that is up answers. On indexed, blockRoutes' table, the
// index finds only routes that are down and the scan decides; small is
// eight /24s out of interface 1 and a default, below indexThreshold. The
// benchguard baseline pins both at 0 allocs/op.
func BenchmarkRouteLookupDownInterface(b *testing.B) {
	blocks, blockDsts := blockRoutes()
	small, smallDsts := e16ShapedRoutes(8)
	for i := range small {
		small[i].IfIndex = 1
	}
	small = append(small, Route{Via: 0xac100001, Source: SourceStatic})
	for _, tc := range []struct {
		name    string
		indexed bool
		routes  []Route
		dsts    []ipv4.Addr
	}{{"indexed", true, blocks, blockDsts}, {"small", false, small, smallDsts}} {
		k := sim.NewKernel(1)
		n := NewNode(k, "gw")
		for i := range 8 {
			lan := ipv4.Prefix{Addr: ipv4.Addr(0xc0a80000 + i<<8), Bits: 24}
			n.AttachInterface(phys.NewP2P(k, fmt.Sprint("l", i), phys.Config{MTU: 1500}), lan.Host(1), lan)
		}
		n.Table.AddBatch(tc.routes)
		var dsts []ipv4.Addr
		for _, dst := range tc.dsts {
			if rt, ok := n.Table.Lookup(dst); ok && rt.IfIndex == 1 {
				dsts = append(dsts, dst)
			}
		}
		rand.New(rand.NewSource(1988)).Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
		n.Interface(1).NIC.SetUp(false)
		if len(dsts) == 0 || (n.Table.idx != nil) != tc.indexed {
			b.Fatalf("%s: %d destinations out of interface 1, indexed %v", tc.name, len(dsts), n.Table.idx != nil)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, ok := n.Table.Lookup(dsts[i%len(dsts)])
				if !ok || r.IfIndex == 1 {
					b.Fatal("lookup took the down interface or missed")
				}
				routeSink += r.IfIndex
			}
		})
	}
}

// routeSink keeps the looked-up route live, so the benchmarks pay for
// returning it as a forwarding gateway does.
var routeSink int

// BenchmarkRouteAddBatch3800 measures building that table from empty,
// and reports what it costs the heap per route installed.
func BenchmarkRouteAddBatch3800(b *testing.B) {
	routes, dsts := e16ShapedRoutes(3800)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tbl RouteTable
		tbl.AddBatch(routes)
		if _, ok := tbl.Lookup(dsts[i%len(dsts)]); !ok {
			b.Fatal("lookup missed")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*len(routes)), "B/route")
}

// BenchmarkRouteLookupCrossover is the sweep indexThreshold was read off:
// the same hit lookups over n /24 routes plus a default, by the linear
// scan (refLookup is Lookup's scan verbatim) and through the index. Two
// loops rather than one over a func value: the indirect call and the
// extra copy of the Route cost as much as the lookup being measured.
func BenchmarkRouteLookupCrossover(b *testing.B) {
	for _, n := range []int{3, 4, 8, 12, 16, 24, 32, 48, 64} {
		routes, dsts := e16ShapedRoutes(n)
		routes = append(routes, Route{Via: 1, Source: SourceStatic}) // 0.0.0.0/0
		var tbl RouteTable
		tbl.AddBatch(routes)
		tbl.index(tbl.merge())
		b.Run(fmt.Sprintf("n=%d/linear", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, ok := refLookup(routes, 0, dsts[i%n])
				if !ok {
					b.Fatal("lookup missed")
				}
				routeSink += r.IfIndex
			}
		})
		b.Run(fmt.Sprintf("n=%d/indexed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, ok := tbl.Lookup(dsts[i%n])
				if !ok {
					b.Fatal("lookup missed")
				}
				routeSink += r.IfIndex
			}
		})
	}
}
