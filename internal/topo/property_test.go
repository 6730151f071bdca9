package topo

import (
	"fmt"
	"testing"
	"time"

	"darpanet/internal/core"
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
