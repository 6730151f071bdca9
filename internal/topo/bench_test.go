package topo

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"darpanet/internal/ipv4"
)

// BenchmarkScaleForward measures per-datagram forwarding cost on the
// E12 reference internet (200 gateways, 380 nets): one datagram from a
// stub host across the access trunk, the transit ring and down the far
// side, end to end per iteration. benchguard pins this at 0 allocs/op
// — the pooled hot path must hold at scale, not just on the 3-node
// micro-benchmark topology.
func BenchmarkScaleForward(b *testing.B) {
	nw, m := Generate(DefaultSpec(), 1)
	nw.InstallStaticRoutes()
	k := nw.Kernel()

	hosts := m.HostNames()
	src, dst := hosts[0], hosts[len(hosts)-1]
	var delivered uint64
	nw.Node(dst).RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: nw.Addr(dst), Proto: 200}

	// Path length, for the ns/op denominator: ns/op ÷ (hops+1) is the
	// per-hop cost the scale experiment reports.
	hops := m.NetHops(src)
	lastStub := m.NodeDefs[len(m.NodeDefs)-1].Nets[0]
	b.ReportMetric(float64(hops[lastStub]+1), "hops")

	for i := 0; i < 64; i++ {
		if err := nw.Node(src).Send(hdr, payload); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Node(src).Send(hdr, payload)
		k.Run()
	}
	b.StopTimer()
	if delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", delivered, 64+b.N)
	}
}

// BenchmarkTransitStubScale is the scale curve of the sharded build: the
// transit-stub internet E16 runs (seven stub gateways per transit
// gateway, one host each, eight regions) at 2 000, 4 000 and 10 000
// gateways. Each op is one GenerateSharded; it reports the build's wall
// seconds, the routes the static oracle installed and the live heap
// with the built internet held. Under -short (check.sh benchsmoke) only
// the 2 000-gateway build runs: the oracle is O(nets · edges), and the
// 10 000-gateway one takes ~20 s.
func BenchmarkTransitStubScale(b *testing.B) {
	for _, gateways := range []int{2000, 4000, 10_000} {
		b.Run(fmt.Sprintf("gw=%d", gateways), func(b *testing.B) {
			if testing.Short() && gateways > 2000 {
				b.Skip("a larger build than -short allows")
			}
			spec := Spec{Shape: TransitStub, Gateways: gateways / 8, StubsPer: 7, Hosts: 1}
			var s *Sharded
			var build time.Duration
			for i := 0; i < b.N; i++ {
				s = nil
				runtime.GC()
				start := time.Now()
				s = GenerateSharded(spec, 1988, 8, 1)
				build += time.Since(start)
			}
			routes := 0
			for _, nw := range s.Regions {
				for _, name := range nw.Nodes() {
					routes += nw.Node(name).Table.Len()
				}
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			runtime.KeepAlive(s)
			b.ReportMetric(build.Seconds()/float64(b.N), "build_s")
			b.ReportMetric(float64(routes), "routes")
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live_MiB")
		})
	}
}
