package fault_test

import (
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/fault"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
)

// benchTopo builds h1 -- gw -- h2 over zero-delay trunks with static
// routes (no RIP — its periodic timers would allocate on their own
// schedule) and an armed injector whose only step is an hour away. The
// benchmark then forwards datagrams while the injector sits idle.
func benchTopo() (*core.Network, *uint64) {
	nw := core.New(1)
	nw.AddNet("n1", "10.0.1.0/24", core.P2P, phys.Config{MTU: 1500})
	nw.AddNet("n2", "10.0.2.0/24", core.P2P, phys.Config{MTU: 1500})
	nw.AddHost("h1", "n1")
	nw.AddGateway("gw", "n1", "n2")
	nw.AddHost("h2", "n2")
	nw.InstallStaticRoutes()

	var delivered uint64
	nw.Node("h2").RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })

	in := fault.New(nw, fault.MustParse("late", "1h cut n1"))
	if err := in.Arm(); err != nil {
		panic(err)
	}
	return nw, &delivered
}

// step advances simulated time far enough to drain the in-flight
// datagram without reaching the armed fault step an hour out, through
// the shard group that would run it.
const step = time.Microsecond

// BenchmarkForwardHotPathIdleInjector pins the tentpole non-regression:
// an armed-but-idle fault injector adds zero allocations to the
// forwarding hot path. All of the injector's closures are bound at Arm;
// between faults it schedules nothing, and a run that passes no observer
// due time is one epoch.
func BenchmarkForwardHotPathIdleInjector(b *testing.B) {
	nw, delivered := benchTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: nw.Addr("h2"), Proto: 200}
	h1 := nw.Node("h1")

	for i := 0; i < 64; i++ {
		if err := h1.Send(hdr, payload); err != nil {
			b.Fatal(err)
		}
		nw.RunFor(step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Send(hdr, payload)
		nw.RunFor(step)
	}
	b.StopTimer()
	if *delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", *delivered, 64+b.N)
	}
}

// TestIdleInjectorZeroAlloc enforces the benchmark's claim in a plain
// test so `go test` alone catches a regression, not only the bench gate.
func TestIdleInjectorZeroAlloc(t *testing.T) {
	nw, delivered := benchTopo()
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: nw.Addr("h2"), Proto: 200}
	h1 := nw.Node("h1")
	for i := 0; i < 64; i++ {
		if err := h1.Send(hdr, payload); err != nil {
			t.Fatal(err)
		}
		nw.RunFor(step)
	}
	avg := testing.AllocsPerRun(200, func() {
		h1.Send(hdr, payload)
		nw.RunFor(step)
	})
	if avg != 0 {
		t.Fatalf("hot path with idle injector allocates %.1f objects per datagram, want 0", avg)
	}
	if *delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
