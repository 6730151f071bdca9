package topo

import (
	"fmt"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/rip"
)

// Property: on randomly generated internets, once the distance-vector
// protocol converges,
//
//  1. forwarding actually works — core.CheckRoute (a hop-by-hop walk
//     of the live tables) delivers for every (router, reachable net)
//     pair, catching next-hop staleness; and
//  2. no routing metric beats the graph-theoretic optimum — a RIP
//     metric below BFS-hops+1 would mean count-to-infinity arithmetic
//     or a poisoned-reverse leak invented a path that does not exist.
//
// Convergence must also settle at the optimum exactly: RIP on a stable
// graph is Bellman–Ford, so metric == hops+1, not merely >=.
func TestRIPConvergesToBFSShortestPaths(t *testing.T) {
	cfg := rip.Config{
		UpdateInterval: 2 * time.Second,
		RouteTimeout:   7 * time.Second,
		GCTimeout:      4 * time.Second,
		TriggeredDelay: 200 * time.Millisecond,
		Batched:        true,
	}
	for _, s := range []string{"waxman:gw=10,hosts=1", "transitstub:gw=4,stubs=2,hosts=1", "ring:gw=8,hosts=1"} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Shape, seed), func(t *testing.T) {
				nw, m := Generate(spec, seed)
				nw.EnableRIP(cfg, m.GatewayNames()...)
				if !runUntilConverged(nw, 120*time.Second) {
					t.Fatal("did not converge")
				}
				for _, gw := range m.GatewayNames() {
					hops := m.NetHops(gw)
					for _, nd := range m.NetDefs {
						want, reachable := hops[nd.Name]
						if !reachable {
							continue
						}
						p := nw.Prefix(nd.Name)
						if nw.CheckRoute(gw, p, 0) != core.RouteDelivered {
							t.Errorf("%s -> %s: route does not deliver", gw, nd.Name)
							continue
						}
						got, ok := nw.RIP(gw).Metric(p)
						if !ok {
							t.Errorf("%s -> %s: no RIP route", gw, nd.Name)
							continue
						}
						if got < want+1 {
							t.Errorf("%s -> %s: metric %d beats BFS optimum %d — phantom path",
								gw, nd.Name, got, want+1)
						} else if got != want+1 {
							t.Errorf("%s -> %s: metric %d, BFS optimum %d — converged suboptimally",
								gw, nd.Name, got, want+1)
						}
					}
				}
			})
		}
	}
}

// runUntilConverged advances the simulation until every router knows
// every prefix, or the deadline passes.
func runUntilConverged(nw *core.Network, deadline time.Duration) bool {
	start := nw.Now()
	for nw.Now().Sub(start) < deadline {
		if nw.Converged() {
			return true
		}
		nw.RunFor(250 * time.Millisecond)
	}
	return nw.Converged()
}

// FuzzTopoSpec: any string either fails ParseSpec or parses to a spec
// whose String parses back to the same String; and a spec small enough
// to build — under about 2 000 nodes — generates without a panic into an
// internet where every interface holds a distinct host address inside
// its own prefix.
func FuzzTopoSpec(f *testing.F) {
	for _, s := range []string{
		"line", "ring:gw=3,hosts=2", "tree:gw=7,degree=2,mix=0", "transitstub:gw=3,stubs=2,hosts=2,dirs=2",
		"waxman:gw=8,alpha=0.4,beta=0.3", "line:gw=2,hosts=300", "line:gw=32000,hosts=0",
	} {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, in string, seed int64) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		if back, err := ParseSpec(spec.String()); err != nil || back.String() != spec.String() {
			t.Fatalf("%q parses to %q, which parses to %q (err %v)", in, spec, back, err)
		}
		gateways := spec.Gateways
		if spec.Shape == TransitStub {
			gateways *= 1 + spec.StubsPer
		}
		if gateways*(1+spec.Hosts) > 2000 || spec.Shape == Waxman && spec.Gateways > 100 {
			return // too big to build ten thousand times; Waxman edges grow as gw²
		}
		nw, m := Generate(spec, seed)
		if m.Hosts != spec.HostCount() {
			t.Fatalf("%s: generated %d hosts, HostCount says %d", spec, m.Hosts, spec.HostCount())
		}
		held := make(map[ipv4.Addr]string)
		for _, name := range nw.Nodes() {
			for _, ifc := range nw.Node(name).Interfaces() {
				if !ifc.Prefix.Contains(ifc.Addr) || !ifc.Prefix.Contains(ifc.Addr+1) || ifc.Addr == ifc.Prefix.Addr {
					t.Fatalf("%s: %s holds %v, not a host address of %v", spec, ifc.NIC.Name(), ifc.Addr, ifc.Prefix)
				}
				if other, dup := held[ifc.Addr]; dup {
					t.Fatalf("%s: %s and %s both hold %v", spec, other, ifc.NIC.Name(), ifc.Addr)
				}
				held[ifc.Addr] = ifc.NIC.Name()
			}
		}
	})
}
