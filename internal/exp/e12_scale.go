package exp

import (
	"fmt"
	"math/rand"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/stats"
	"darpanet/internal/topo"
)

// runE12 measures whether the architecture's claims survive scale: a
// generated internet two orders beyond the hand-wired labs must reach
// routing convergence by gossip alone, carry a background traffic
// matrix, keep per-datagram forwarding cost flat, and balance the
// frame-conservation ledger to the frame. It reruns on any graph the
// generator can build (p.Topo).
func runE12(seed int64, p Params) Result {
	nw, m := topo.Generate(*p.Topo, seed)
	cfg := fastRIP()
	cfg.Batched = true
	nw.EnableRIP(cfg, m.GatewayNames()...)

	table := stats.Table{Header: []string{"phase", "quantity", "value"}}
	table.AddRow("topology", "spec", m.Spec)
	table.AddRow("topology", "gateways / hosts / nets",
		fmt.Sprintf("%d / %d / %d", m.Gateways, m.Hosts, m.Nets))

	// Phase 1: distributed convergence. Every gateway must learn all
	// m.Nets prefixes with no central authority in the loop.
	convTime := timeUntil(nw, 5*time.Minute, nw.Converged)
	table.AddRow("convergence", "converged", yesNo(convTime >= 0))
	table.AddRow("convergence", "time", durStr(convTime))

	// Phase 2: route audit on a deterministic sample of (gateway, net)
	// pairs — the forwarding-walk oracle plus metric optimality
	// against the manifest's BFS. Converged() declares when every
	// prefix is known, a few metrics may still be settling toward the
	// optimum; give the gossip two more update rounds so the audit
	// measures steady state, not the last transient.
	nw.RunFor(2 * cfg.UpdateInterval)
	rng := rand.New(rand.NewSource(seed ^ 0xe12))
	gws := m.GatewayNames()
	const auditPairs = 256
	audited, worksOK, optimalOK := 0, 0, 0
	hopsCache := make(map[string]map[string]int)
	for i := 0; i < auditPairs; i++ {
		gw := gws[rng.Intn(len(gws))]
		nd := m.NetDefs[rng.Intn(len(m.NetDefs))]
		hops := hopsCache[gw]
		if hops == nil {
			hops = m.NetHops(gw)
			hopsCache[gw] = hops
		}
		want, reachable := hops[nd.Name]
		if !reachable {
			continue
		}
		audited++
		p := nw.Prefix(nd.Name)
		if nw.CheckRoute(gw, p, 0) == core.RouteDelivered {
			worksOK++
		}
		if got, ok := nw.RIP(gw).Metric(p); ok && got == want+1 {
			optimalOK++
		}
	}
	table.AddRow("route audit", "pairs sampled", fmt.Sprint(audited))
	table.AddRow("route audit", "forwarding walk delivers",
		fmt.Sprintf("%d/%d", worksOK, audited))
	table.AddRow("route audit", "metric = BFS optimum",
		fmt.Sprintf("%d/%d", optimalOK, audited))

	// Phase 3: background traffic matrix — host-to-host flows drawn
	// across the whole internet, UDP request/response plus bulk TCP,
	// riding on top of the steady-state routing chatter.
	tm := startTrafficMatrix(nw, rng, m.HostNames(), 24)
	nw.RunFor(15 * time.Second)

	res := Result{
		Table: table,
		Notes: []string{
			"the same gossip, forwarding and conservation invariants that hold on the 9-gateway labs hold two orders of magnitude up — the generality bill (forwards per delivery) is the only number that grows.",
		},
	}
	res.AddMetric("nets", "", float64(m.Nets))
	res.AddMetric("gateways", "", float64(m.Gateways))
	res.AddMetric("hosts", "", float64(m.Hosts))
	res.AddMetric("converged", "", bool01(convTime >= 0))
	res.AddMetric("converge_time", "s", convTime.Seconds())
	res.AddMetric("audit_pairs", "", float64(audited))
	res.AddMetric("audit_routeworks", "", ratio(worksOK, audited))
	res.AddMetric("audit_optimal", "", ratio(optimalOK, audited))
	// Phase 4: cost and conservation, at this scale.
	tm.report(nw, &res, "frame ledger Δ")
	res.AddCounterSums("scale", nw.Kernel())
	return res
}
