package survive_test

import (
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/fault"
	"darpanet/internal/ipv4"
	"darpanet/internal/survive"
	"darpanet/internal/topo"
)

// censusTopo builds a generated transit-stub internet with static
// routes, takes a partition census, and arms the cut-set-targeted
// attack with every step an hour away — the E14 steady state between
// analysis and impact. The benchmark then forwards datagrams end to end
// while the census is held and the injector sits idle.
func censusTopo(b testing.TB) (*core.Network, *topo.Manifest, *uint64) {
	spec, err := topo.ParseSpec("transitstub:gw=3,stubs=2,hosts=1,mix=0")
	if err != nil {
		b.Fatal(err)
	}
	nw, m := topo.Generate(spec, 1)
	nw.InstallStaticRoutes()

	an := survive.Analyze(m)
	sched := an.Targeted(an.BudgetFor(0.10), time.Hour)
	if len(sched.Steps) == 0 {
		b.Fatal("targeted schedule is empty")
	}
	in := fault.New(nw, sched)
	if err := in.Arm(); err != nil {
		b.Fatal(err)
	}

	if c := nw.PartitionCensus(); c.Components != 1 {
		b.Fatalf("intact internet has %d components", c.Components)
	}

	hosts := m.HostNames()
	var delivered uint64
	nw.Node(hosts[len(hosts)-1]).RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	return nw, m, &delivered
}

// censusStep bounds one end-to-end delivery on the generated internet
// (ms-scale link delays plus T1 serialization) without reaching the
// armed attack an hour out.
const censusStep = 100 * time.Millisecond

// BenchmarkForwardHotPathSurviveCensus pins E14's non-regression: the
// survivability analysis, a held partition census and an armed targeted
// compound attack add zero allocations to the forwarding hot path.
func BenchmarkForwardHotPathSurviveCensus(b *testing.B) {
	nw, m, delivered := censusTopo(b)
	hosts := m.HostNames()
	src, dst := hosts[0], hosts[len(hosts)-1]
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: nw.Addr(dst), Proto: 200}

	for i := 0; i < 64; i++ {
		if err := nw.Node(src).Send(hdr, payload); err != nil {
			b.Fatal(err)
		}
		nw.RunFor(censusStep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Node(src).Send(hdr, payload)
		nw.RunFor(censusStep)
	}
	b.StopTimer()
	if *delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", *delivered, 64+b.N)
	}
}

// TestSurviveCensusZeroAlloc enforces the benchmark's claim in a plain
// test so `go test` alone catches a regression, not only the bench gate.
func TestSurviveCensusZeroAlloc(t *testing.T) {
	nw, m, delivered := censusTopo(t)
	hosts := m.HostNames()
	src, dst := hosts[0], hosts[len(hosts)-1]
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: nw.Addr(dst), Proto: 200}
	for i := 0; i < 64; i++ {
		if err := nw.Node(src).Send(hdr, payload); err != nil {
			t.Fatal(err)
		}
		nw.RunFor(censusStep)
	}
	avg := testing.AllocsPerRun(200, func() {
		nw.Node(src).Send(hdr, payload)
		nw.RunFor(censusStep)
	})
	if avg != 0 {
		t.Fatalf("hot path with held census and armed attack allocates %.1f objects per datagram, want 0", avg)
	}
	if *delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
