package names_test

import (
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/names"
	"darpanet/internal/phys"
	"darpanet/internal/udp"
)

// benchResolverTopo builds h1 -- gw -- h2 over infinitely fast links
// with the full naming layer resident and quiescent: a live directory
// replica pair (on gw and d2) with their anti-entropy timers parked
// beyond the measured window, and a resolver on h1 whose cache was
// warmed by a real query — its TTL eviction timer pending for an hour.
// The destination address the hot path uses is the one the resolver
// returned. Forwarding must not pay a single allocation for any of it.
func benchResolverTopo(tb testing.TB) (*core.Network, ipv4.Addr, *uint64) {
	nw := core.New(1)
	cfg := phys.Config{MTU: 1500}
	nw.AddNet("n1", "10.0.1.0/24", core.LAN, cfg)
	nw.AddNet("n2", "10.0.2.0/24", core.LAN, cfg)
	nw.AddHost("h1", "n1")
	nw.AddGateway("gw", "n1", "n2")
	nw.AddHost("h2", "n2")
	nw.AddHost("d2", "n2")
	nw.InstallStaticRoutes()

	eps := []udp.Endpoint{
		{Addr: nw.Addr("gw"), Port: names.Port},
		{Addr: nw.Addr("d2"), Port: names.Port},
	}
	scfg := names.ServerConfig{TTL: time.Hour, Sync: 10 * time.Second}
	for i, d := range []string{"gw", "d2"} {
		srv, err := names.NewServer(nw.UDP(d), d, scfg)
		if err != nil {
			tb.Fatal(err)
		}
		srv.SetPeers([]udp.Endpoint{eps[1-i]})
	}

	r, err := names.NewResolver(nw.UDP("h1"), names.ResolverConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	r.SetReplicas(eps)
	regOK := false
	r.Register("h2", nw.Addr("h2"), 1, func(ok bool) { regOK = ok })
	nw.RunFor(100 * time.Millisecond)
	if !regOK {
		tb.Fatal("registration failed")
	}
	var dst ipv4.Addr
	r.Resolve("h2", func(a ipv4.Addr, ok bool) {
		if ok {
			dst = a
		}
	})
	nw.RunFor(100 * time.Millisecond)
	if dst == 0 {
		tb.Fatal("warming resolve failed")
	}
	if r.CacheLen() == 0 {
		tb.Fatal("resolver cache not warm")
	}

	var delivered uint64
	nw.Node("h2").RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	return nw, dst, &delivered
}

// benchStep drains the in-flight datagram without reaching the
// directory sync or cache-expiry timers parked seconds away.
const benchStep = time.Microsecond

// BenchmarkForwardHotPathWithResolverCache pins the naming layer's
// non-regression: forwarding datagrams to a name-resolved address,
// with warm resolver caches and a live (peered, timer-armed) directory
// on the gateway, stays at 0 allocs/op. The names subsystem parks only
// pooled timers between transactions; the per-datagram path owes it
// nothing.
func BenchmarkForwardHotPathWithResolverCache(b *testing.B) {
	nw, dst, delivered := benchResolverTopo(b)
	k := nw.Kernel()
	h1 := nw.Node("h1")
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: dst, Proto: 200}

	for i := 0; i < 64; i++ {
		if err := h1.Send(hdr, payload); err != nil {
			b.Fatal(err)
		}
		k.RunFor(benchStep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Send(hdr, payload)
		k.RunFor(benchStep)
	}
	b.StopTimer()
	if *delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", *delivered, 64+b.N)
	}
}

// TestForwardWithResolverCacheZeroAlloc enforces the benchmark's claim
// in a plain test so `go test` alone catches a regression, not only
// the bench gate.
func TestForwardWithResolverCacheZeroAlloc(t *testing.T) {
	nw, dst, delivered := benchResolverTopo(t)
	k := nw.Kernel()
	h1 := nw.Node("h1")
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: dst, Proto: 200}
	for i := 0; i < 64; i++ {
		if err := h1.Send(hdr, payload); err != nil {
			t.Fatal(err)
		}
		k.RunFor(benchStep)
	}
	avg := testing.AllocsPerRun(200, func() {
		h1.Send(hdr, payload)
		k.RunFor(benchStep)
	})
	if avg != 0 {
		t.Fatalf("hot path with resident naming layer allocates %.1f objects per datagram, want 0", avg)
	}
	if *delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
