package exp

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"darpanet/internal/stats"
	"darpanet/internal/topo"
)

// E16Spec returns the E16 reference internet: a 2000-gateway
// transit-stub graph (250 transit gateways, 7 stub gateways each, one
// host per stub LAN) — an order of magnitude past E12, the scale the
// sharded kernel exists for.
func E16Spec() topo.Spec {
	return topo.Spec{Shape: topo.TransitStub, Gateways: 250, StubsPer: 7, Hosts: 1}
}

// runE16 measures whether the architecture's invariants — and the
// simulator's own determinism — survive sharding: the internet is cut
// into region kernels advanced in lock-step epochs bounded by the
// minimum cross-region trunk delay (conservative synchronization), and
// every metric below must come out byte-identical at any worker count.
// Wall-clock figures (build time, run time, per-region busy time, the
// busy / critical-path ratio) are reported in the notes only — never as
// metrics or table rows, which are compared byte for byte across runs
// and worker counts — precisely so that holds. The partition, and with
// it every result, depends only on (p.Topo, seed, p.Regions); p.Shards,
// the worker count a test sets to prove that, changes nothing else.
func runE16(seed int64, p Params) Result {
	t0 := time.Now()
	s := topo.GenerateSharded(*p.Topo, seed, p.Regions, p.Shards)
	buildWall := time.Since(t0)
	for _, nw := range s.Regions {
		hookNet(nw)
	}
	m := s.Manifest
	part := m.Partition

	table := stats.Table{Header: []string{"phase", "quantity", "value"}}
	table.AddRow("topology", "spec", m.Spec)
	table.AddRow("topology", "gateways / hosts / nets",
		fmt.Sprintf("%d / %d / %d", m.Gateways, m.Hosts, m.Nets))
	table.AddRow("partition", "regions / cross trunks",
		fmt.Sprintf("%d / %d", part.Regions, part.CrossLinks))
	table.AddRow("partition", "lookahead", fmt.Sprintf("%.1fms", float64(part.LookaheadUS)/1000))
	table.AddRow("partition", "region loads (nodes)", fmt.Sprint(part.RegionLoads()))

	// Phase 1: route audit. Static routes are installed globally across
	// the regions (the boundary net is the only coupling); a sampled
	// walk over the installed state must deliver every reachable host
	// pair in exactly the BFS-optimal number of gateway hops.
	rng := rand.New(rand.NewSource(seed ^ 0xe16))
	hosts := m.HostNames()
	const auditPairs = 128
	hopsCache := make([][]int, len(hosts))
	audited, delivers, optimal, crossRegion := 0, 0, 0, 0
	for i := 0; i < auditPairs; i++ {
		f, t := rng.Intn(len(hosts)), rng.Intn(len(hosts))
		if hopsCache[f] == nil {
			hopsCache[f] = m.NetHops(hosts[f])
		}
		from, to := hosts[f], hosts[t]
		want := hopsCache[f][m.NodeNets(m.NodeIndex(to))[0]]
		if want < 0 {
			continue
		}
		audited++
		if s.Net(from) != s.Net(to) {
			crossRegion++
		}
		got, ok := s.PathHops(from, to)
		if ok {
			delivers++
			if got == want {
				optimal++
			}
		}
	}
	table.AddRow("route audit", "pairs sampled (cross-region)",
		fmt.Sprintf("%d (%d)", audited, crossRegion))
	table.AddRow("route audit", "walk delivers", fmt.Sprintf("%d/%d", delivers, audited))
	table.AddRow("route audit", "hops = BFS optimum", fmt.Sprintf("%d/%d", optimal, audited))

	// Phase 2: traffic matrix across the cut — UDP request/response
	// and bulk TCP between hosts drawn over the whole internet, most
	// pairs spanning regions, every frame crossing a boundary trunk at
	// an epoch barrier.
	tm := startTrafficMatrix(s.Regions[0], rng, hosts, 16)
	flows, trafficCross := slices.Concat(tm.queries, tm.xfers), 0
	for _, f := range flows {
		if s.Net(f.Src) != s.Net(f.Dst) {
			trafficCross++
		}
	}
	table.AddRow("traffic", "flows (cross-region)",
		fmt.Sprintf("%d (%d)", len(flows), trafficCross))
	t1 := time.Now()
	s.RunFor(12 * time.Second)
	runWall := time.Since(t1)

	// Phase 3: scaling diagnostics — wall-clock only, notes only (the
	// table and metrics are compared byte for byte across runs and
	// worker counts, and wall time varies with the machine). The busy
	// times show the partition's load balance; TotalBusy over
	// CriticalPath is the ceiling with one core per region and free
	// barriers, not a measured speedup.
	busy := s.Group.BusyTimes()
	totalBusy := s.Group.TotalBusy()
	crit := s.Group.CriticalPath()
	ceiling := 0.0
	if crit > 0 {
		ceiling = float64(totalBusy) / float64(crit)
	}
	loads := make([]string, len(busy))
	for i, d := range busy {
		loads[i] = fmt.Sprintf("%.0fms", d.Seconds()*1000)
	}

	res := Result{
		Table: table,
		Notes: []string{
			"every metric above is byte-identical at any worker count: the epoch schedule, per-kernel event order and barrier exchange order are fixed by the lookahead, never by the worker count.",
			fmt.Sprintf("timing (machine-dependent, diagnostics only): build %.2fs, run %.2fs at %d worker(s); per-region busy %v; total busy %.2fs / critical path %.2fs; busy / critical-path ratio %.2f, the ceiling with one core per region.",
				buildWall.Seconds(), runWall.Seconds(), p.Shards, loads,
				totalBusy.Seconds(), crit.Seconds(), ceiling),
		},
	}
	res.AddMetric("gateways", "", float64(m.Gateways))
	res.AddMetric("hosts", "", float64(m.Hosts))
	res.AddMetric("nets", "", float64(m.Nets))
	res.AddMetric("regions", "", float64(part.Regions))
	res.AddMetric("cross_links", "", float64(part.CrossLinks))
	res.AddMetric("lookahead_us", "us", float64(part.LookaheadUS))
	res.AddMetric("audit_pairs", "", float64(audited))
	res.AddMetric("audit_cross_region", "", ratio(crossRegion, audited))
	res.AddMetric("audit_delivers", "", ratio(delivers, audited))
	res.AddMetric("audit_optimal", "", ratio(optimal, audited))
	// Phase 4: cost and conservation, summed across every region
	// kernel. The frame ledger must balance globally: a frame leaving a
	// NIC in one region and arriving in another via a boundary trunk is
	// still one frame, and anything parked in a boundary outbox at the
	// end counts as in flight.
	tm.report(s.Regions[0], &res, "frame ledger Δ (all regions)")
	res.AddCounterSums("sharded", s.Group.Kernels()...)
	return res
}
