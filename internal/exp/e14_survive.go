package exp

import (
	"fmt"
	"math/rand"
	"time"

	"darpanet/internal/fault"
	"darpanet/internal/metrics"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/survive"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// E14 — the worst-case survivability frontier. The paper's #1 goal is
// that conversations continue "as long as some physical path exists";
// E11 showed recovery from hand-picked failures, but the CMU/SEI
// survivable-systems method demands more: find the topology's weak
// points, attack them deliberately, and measure essential-service
// delivery as a curve. E14 sweeps % infrastructure lost — cut-set-
// targeted versus random at matched budgets — over a generated
// transit-stub internet carrying a flow-level workload, and charts the
// goodput fraction retained, partition structure, reconvergence-time
// distribution and frame-conservation ledger per cell. The spread
// between the targeted and random curves is the survivability margin
// redundancy actually buys.

// e14Load is the offered load in T1 multiples: moderate on purpose —
// the question is what fraction of service survives the attack, so the
// baseline must not be congestion-limited.
const e14Load = 2.0

const (
	e14Drain = 5 * time.Second // flows get this long to finish after the admission window
	e14Lead  = time.Second     // quiet time before the compound failure lands
)

// e14Workload is the mix carried across the attack: bulk-dominated
// adaptive-era hosts (the congestion story is E13's; survivability is
// measured with hosts that behave), sized so flows complete within the
// measurement window.
func e14Workload() workload.Spec {
	ws := workload.DefaultSpec()
	ws.VJ = true
	ws.MaxBytes = 200_000
	return ws
}

// e14Cell is one (mode × frac) attack outcome.
type e14Cell struct {
	mode string // "t" targeted, "r" random
	frac float64

	cuts, crashes int
	sum           workload.Summary
	goodputFrac   float64

	partitions  int
	largestFrac float64
	downNodes   int

	reconv           *stats.Sample
	injected         map[string]float64 // the injector's Metrics, by name
	ledgerDelta      int64
	convergedPrefail bool
}

// e14ModeName spells a mode code out for tables.
func e14ModeName(mode string) string {
	if mode == "t" {
		return "targeted"
	}
	return "random"
}

// runE14 sweeps p.Fracs over p.Topo carrying p.Workload: flows are
// admitted for p.Window, and service is measured after p.Drain of
// post-failure reconvergence.
func runE14(seed int64, p Params) Result {
	spec, ws, fracs, window, reconv := *p.Topo, *p.Workload, p.Fracs, p.Window, p.Drain
	cfg := fastRIP()
	cfg.Batched = true
	load := ws.WithRate(e14Load * e13RefBps / ws.WithRate(1).OfferedBps())

	// Baseline: the same internet and the same engine seed with no
	// faults. Every cell regenerates this topology and replays this
	// arrival process, so post-failure goodput divided by the baseline
	// is a like-for-like service fraction.
	baseNW, m := topo.Generate(spec, seed)
	baseNW.EnableRIP(cfg, m.GatewayNames()...)
	convTime := timeUntil(baseNW, 2*time.Minute, baseNW.Converged)
	baseNW.RunFor(2 * cfg.UpdateInterval)
	baseEng := workload.New(baseNW, m.HostNames(), load, seed*1000+1)
	baseEng.Arm(window)
	baseNW.RunFor(window + e14Drain)
	baseSum := baseEng.Summarize(window)

	adj := m.Adjacency()
	an := survive.Analyze(adj)

	var cells []e14Cell
	var lastKernel *sim.Kernel
	for _, mode := range []string{"t", "r"} {
		for fi, frac := range fracs {
			budget := survive.BudgetFor(adj, frac)
			var sched fault.Schedule
			if mode == "t" {
				sched = an.Targeted(budget, e14Lead)
			} else {
				rng := rand.New(rand.NewSource(seed*997 + int64(fi)))
				sched = survive.RandomSchedule(adj, budget, rng, e14Lead)
			}

			nw, m2 := topo.Generate(spec, seed)
			nw.EnableRIP(cfg, m2.GatewayNames()...)
			cell := e14Cell{mode: mode, frac: frac}
			cell.convergedPrefail = timeUntil(nw, 2*time.Minute, nw.Converged) >= 0
			nw.RunFor(2 * cfg.UpdateInterval)

			in := fault.New(nw, sched)
			// Hop budget just above any real path length: exhaustion
			// means a loop, not a long route.
			in.SetHopLimit(len(adj.Gateways) + 4)
			if err := in.Arm(); err != nil {
				panic(err)
			}
			nw.RunFor(e14Lead + reconv)

			census := nw.PartitionCensus()
			cell.partitions = census.Components
			cell.largestFrac = census.LargestFrac()
			cell.downNodes = census.Down

			eng := workload.New(nw, m2.HostNames(), load, seed*1000+1)
			eng.Arm(window)
			nw.RunFor(window + e14Drain)
			cell.sum = eng.Summarize(window)
			if baseSum.GoodputBps > 0 {
				cell.goodputFrac = cell.sum.GoodputBps / baseSum.GoodputBps
			}

			for _, st := range sched.Steps {
				switch st.Op {
				case fault.OpCut:
					cell.cuts++
				case fault.OpCrash:
					cell.crashes++
				}
			}
			cell.injected = map[string]float64{}
			for _, mt := range in.Metrics() {
				cell.injected[mt.Name] = mt.Value
			}
			cell.reconv = &stats.Sample{}
			for _, d := range in.ReconvergeDurations() {
				cell.reconv.Add(d.Seconds())
			}

			_, cell.ledgerDelta = frameLedger(metrics.For(nw.Kernel()).Snapshot())

			cells = append(cells, cell)
			lastKernel = nw.Kernel()
		}
	}

	table := stats.Table{Header: []string{
		"mode", "lost", "cuts+crashes", "parts", "largest", "reconv p90", "goodput", "of baseline"}}
	table.AddRow("baseline", "0%", "0+0", "1", "1.00",
		durStr(convTime), stats.HumanRate(baseSum.GoodputBps), "1.00")
	for _, c := range cells {
		table.AddRow(
			e14ModeName(c.mode),
			fmt.Sprintf("%g%%", c.frac*100),
			fmt.Sprintf("%d+%d", c.cuts, c.crashes),
			fmt.Sprint(c.partitions),
			fmt.Sprintf("%.2f", c.largestFrac),
			fmt.Sprintf("%.2fs", c.reconv.Percentile(90)),
			stats.HumanRate(c.sum.GoodputBps),
			fmt.Sprintf("%.2f", c.goodputFrac),
		)
	}

	res := Result{
		Table: table,
	}
	res.AddMetric("gateways", "", float64(len(adj.Gateways)))
	res.AddMetric("trunks", "", float64(adj.TrunkCount()))
	res.AddMetric("cut_gateways", "", float64(len(an.CutGateways)))
	res.AddMetric("cut_nets", "", float64(len(an.CutNets)))
	res.AddMetric("cut_pairs", "", float64(len(an.CutPairs)))
	res.AddMetric("base_goodput", "bps", baseSum.GoodputBps)
	res.AddMetric("base_converge_s", "s", convTime.Seconds())

	type e14Key struct {
		mode string
		frac float64
	}
	byCell := map[e14Key]e14Cell{}
	for _, c := range cells {
		labels := []string{c.mode, fmt.Sprintf("f%g", c.frac*100)}
		byCell[e14Key{c.mode, c.frac}] = c
		res.AddLabelled("s", labels, "lost_pct", "%", c.frac*100)
		res.AddLabelled("s", labels, "cuts", "", float64(c.cuts))
		res.AddLabelled("s", labels, "crashes", "", float64(c.crashes))
		res.AddLabelled("s", labels, "goodput", "bps", c.sum.GoodputBps)
		res.AddLabelled("s", labels, "goodput_frac", "", c.goodputFrac)
		res.AddLabelled("s", labels, "done_frac", "", ratio(c.sum.Completed, c.sum.Started))
		res.AddLabelled("s", labels, "partitions", "", float64(c.partitions))
		res.AddLabelled("s", labels, "largest_frac", "", c.largestFrac)
		res.AddLabelled("s", labels, "down_nodes", "", float64(c.downNodes))
		res.AddLabelled("s", labels, "reconv_p50_s", "s", c.reconv.Percentile(50))
		res.AddLabelled("s", labels, "reconv_p90_s", "s", c.reconv.Percentile(90))
		res.AddLabelled("s", labels, "reconv_max_s", "s", c.reconv.Max())
		res.AddLabelled("s", labels, "events", "", c.injected["events_injected"])
		res.AddLabelled("s", labels, "reconverged", "", c.injected["events_reconverged"])
		res.AddLabelled("s", labels, "unreconverged", "", c.injected["events_unreconverged"])
		res.AddLabelled("s", labels, "partitioned", "", c.injected["events_partitioned"])
		res.AddLabelled("s", labels, "loop_exits", "", c.injected["route_loop_exits"])
		res.AddLabelled("s", labels, "lost_frames", "", c.injected["blackout_lost_frames"])
		res.AddLabelled("s", labels, "ledger_delta", "", float64(c.ledgerDelta))
		res.AddLabelled("s", labels, "prefail_converged", "", bool01(c.convergedPrefail))
	}

	// The headline: at each budget, how much more service does the
	// targeted attack destroy than the random one?
	gapSum := 0.0
	for _, frac := range fracs {
		t, r := byCell[e14Key{"t", frac}], byCell[e14Key{"r", frac}]
		gap := r.goodputFrac - t.goodputFrac
		gapSum += gap
		res.AddMetric(fmt.Sprintf("gap_f%g", frac*100), "", gap)
	}
	res.AddMetric("targeted_worse", "", bool01(gapSum > 0))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"each cell cuts frac·trunks and crashes frac·gateways at one instant on a fresh copy of the same internet carrying the same seeded workload; goodput fraction is measured after a %s reconvergence window against the unfaulted baseline.",
		reconv),
		"targeted attacks spend the budget on articulation gateways, bridge trunks and minimal 2-cuts from the survive analysis; random spends the same budget uniformly — the gap between the curves is the survivability margin.")
	res.AddCounterSums("survive", lastKernel)
	return res
}
