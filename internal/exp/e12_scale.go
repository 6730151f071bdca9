package exp

import (
	"fmt"
	"math/rand"
	"time"

	"darpanet/internal/metrics"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
)

// RunE12 runs the scale experiment on the reference internet: 200
// gateways, 380 networks (topo.DefaultSpec).
func RunE12(seed int64) Result { return e12With(Params{})(seed) }

// e12With binds E12 to Params.Topo: the scale experiment reruns on any
// graph the generator can build.
func e12With(p Params) func(seed int64) Result {
	spec := or(p.Topo, topo.DefaultSpec())
	return func(seed int64) Result { return runE12(seed, spec) }
}

// runE12 measures whether the architecture's claims survive scale: a
// generated internet two orders beyond the hand-wired labs must reach
// routing convergence by gossip alone, carry a background traffic
// matrix, keep per-datagram forwarding cost flat, and balance the
// frame-conservation ledger to the frame.
func runE12(seed int64, spec topo.Spec) Result {
	nw, m := topo.Generate(spec, seed)
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
		if nw.RouteWorks(gw, p) {
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
	hosts := m.HostNames()
	pickPair := func() (string, string) {
		a := rng.Intn(len(hosts))
		b := rng.Intn(len(hosts) - 1)
		if b >= a {
			b++
		}
		return hosts[a], hosts[b]
	}
	nFlows := 24
	if nFlows > len(hosts)/2 {
		nFlows = len(hosts) / 2
	}
	queries := make([]*queryDriver, 0, nFlows)
	for f := 0; f < nFlows; f++ {
		from, to := pickPair()
		queries = append(queries, runUDPQueries(nw, from, to, uint16(7000+f), 20, 250*time.Millisecond, 256, 0))
	}
	nXfers := 4
	if nXfers > nFlows {
		nXfers = nFlows
	}
	const xferBytes = 100_000
	xfers := make([]*Transfer, 0, nXfers)
	for x := 0; x < nXfers; x++ {
		from, to := pickPair()
		xfers = append(xfers, StartBulkTCP(nw, from, to, uint16(9000+x), xferBytes, tcp.Options{SendBufferSize: 65535}))
	}
	nw.RunFor(15 * time.Second)

	sent, got := 0, 0
	rtts := &stats.Sample{}
	for _, q := range queries {
		sent += q.sent
		got += q.got
		for _, r := range q.rtts {
			rtts.Add(r.Seconds() * 1000)
		}
	}
	xferDone, xferBytesRx := 0, 0
	var slowest sim.Duration
	for _, tr := range xfers {
		xferBytesRx += tr.Received
		if tr.Done {
			xferDone++
			if e := tr.ElapsedToDone(); e > slowest {
				slowest = e
			}
		}
	}
	table.AddRow("traffic", "udp delivered", fmt.Sprintf("%d/%d", got, sent))
	table.AddRow("traffic", "udp rtt p50 / p99",
		fmt.Sprintf("%.1f / %.1f ms", rtts.Percentile(50), rtts.Percentile(99)))
	table.AddRow("traffic", "tcp transfers done",
		fmt.Sprintf("%d/%d (%s each)", xferDone, len(xfers), stats.HumanBytes(xferBytes)))

	// Phase 4: cost and conservation. Per-delivery forwarding cost is
	// the datagram architecture's scaling bill (gateway relays per
	// end-to-end delivery); the ledger check proves the simulation
	// lost not a single frame unaccounted at this scale.
	snap := metrics.For(nw.Kernel()).Snapshot()
	forwarded := snap.Sum("ip/forwarded")
	delivers := snap.Sum("ip/in_delivers")
	fwdPerDelivery := 0.0
	if delivers > 0 {
		fwdPerDelivery = float64(forwarded) / float64(delivers)
	}
	lhs := snap.Sum("nic/tx_frames") + snap.Sum("medium/bcast_copies")
	rhs := snap.Sum("nic/rx_frames") + snap.Sum("nic/rx_lost") +
		snap.Sum("nic/rx_down") + snap.Sum("nic/rx_no_recv") +
		snap.Sum("medium/queue_drops") + snap.Sum("medium/lost_down") +
		snap.Sum("medium/no_match") + snap.Sum("medium/bcast_fanout") +
		snap.Sum("medium/queued") + snap.Sum("medium/in_flight")
	ledgerDelta := int64(lhs) - int64(rhs)
	table.AddRow("cost", "frames originated", fmt.Sprint(lhs))
	table.AddRow("cost", "forwards per delivery", fmt.Sprintf("%.2f", fwdPerDelivery))
	table.AddRow("cost", "frame ledger Δ", fmt.Sprint(ledgerDelta))

	res := Result{
		ID:    "E12",
		Title: "Scale: a generated internet of hundreds of gateways (ROADMAP north star)",
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
	res.AddMetric("udp_sent", "", float64(sent))
	res.AddMetric("udp_delivered", "", ratio(got, sent))
	res.AddMetric("udp_rtt_p50", "ms", rtts.Percentile(50))
	res.AddMetric("udp_rtt_p99", "ms", rtts.Percentile(99))
	res.AddMetric("tcp_done", "", ratio(xferDone, len(xfers)))
	res.AddMetric("tcp_bytes", "B", float64(xferBytesRx))
	res.AddMetric("tcp_slowest", "s", slowest.Seconds())
	res.AddMetric("fwd_per_delivery", "", fwdPerDelivery)
	res.AddMetric("frame_ledger_delta", "", float64(ledgerDelta))
	res.AddCounterSums("scale", nw.Kernel())
	return res
}

// ratio renders num/den as a fraction metric (0 when empty).
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
