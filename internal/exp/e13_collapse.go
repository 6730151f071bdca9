package exp

import (
	"fmt"

	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// E13 — congestion collapse. The paper ranks resource management among
// the goals the datagram architecture left unsolved; this experiment
// reproduces what that omission cost. A generated transit-stub internet
// of T1 trunks is offered an increasing flow-level load (bounded-Pareto
// sizes, Poisson arrivals, the pre-VJ window-blasting TCP of the era)
// and delivered goodput is charted against offered load: it rises to
// the knee, then *declines* as the network fills with retransmitted
// copies of bytes it already delivered — congestion collapse, the cliff
// "How We Ruined The Internet" documents. Alongside the goodput curve
// the run measures global RTO synchronization (mean pairwise
// correlation of per-flow retransmission bursts) and Jain fairness
// across the competing flows.

// e13RefBps is the T1 line rate every trunk of the Mix=false
// transit-stub internet runs at.
const e13RefBps = 1_544_000.0

// e13Topo is the generated internet: a 4-transit ring with 2 stub
// gateways each — 12 gateways, 8 stub LANs, 24 hosts, every trunk a T1.
// Routing is static (no RIP): whatever collapses here, collapses from
// transport behavior alone.
func e13Topo() topo.Spec {
	return topo.Spec{Shape: topo.TransitStub, Gateways: 3, StubsPer: 4, Hosts: 1, Mix: false}
}

// e13GatewayQueue is the per-interface FIFO depth installed on every
// gateway: the era's generously buffered IMP. Deep drop-tail buffers
// are the collapse's second ingredient (Nagle, "On Packet Switches
// with Infinite Storage"): a full 512-frame queue of 536-byte segments
// adds ~1.4s of delay at T1 rate — several naive RTOs — so hosts
// retransmit datagrams that are still queued ahead of their copies,
// and the trunks fill with traffic that is already delivered or
// already doomed.
const e13GatewayQueue = 512

// E13Workload returns the collapse-era workload mix E13 offers:
// bulk-dominated, pre-VJ, naive-RTO — the fixed no-backoff
// retransmission timer of the hosts that actually caused the collapse
// era (adaptive RTO with exponential backoff, though still pre-VJ,
// already damps the storm enough to blunt the cliff). The tournament
// (E13-T) starts from the same mix and swaps only the host congestion
// response per cell.
func E13Workload() workload.Spec {
	ws := workload.DefaultSpec()
	ws.NaiveRTO = true
	// Heavier elephants than the default mix: flows that outlive a
	// single 16KB window are what contend — a mouse delivers its one
	// blast and leaves, so an all-mice mix shows saturation, not
	// collapse.
	ws.Alpha, ws.MinBytes, ws.MaxBytes = 1.1, 30_000, 2_000_000
	return ws
}

// e13Point is one load point's outcome.
type e13Point struct {
	load float64
	sum  workload.Summary
}

// e13Outcome is the collapse-curve reduction shared by E13 and every
// E13-T tournament cell.
type e13Outcome struct {
	points        []e13Point
	peakGoodput   float64
	kneeLoad      float64
	collapseRatio float64
	lastKernel    *sim.Kernel
}

// e13Sweep offers the load sweep to a fresh generated internet per load
// point, with the given gateway queue policy installed, and reduces the
// curve. The topology depends only on (spec, campaign seed), and the
// arrival process per load point only on (seed, point index) — so two
// sweeps at the same seed differing only in policy or host response see
// identical topology and identical offered traffic, which is what makes
// tournament cells comparable.
func e13Sweep(seed int64, tspec topo.Spec, ws workload.Spec, policy phys.PolicySpec, loads []float64, window, drain sim.Duration) e13Outcome {
	out := e13Outcome{points: make([]e13Point, 0, len(loads))}

	// bpsPerUnitRate converts a target offered load to an arrival rate:
	// OfferedBps is linear in Rate (duty cycle included), so one probe
	// at rate=1 calibrates the whole sweep.
	bpsPerUnitRate := ws.WithRate(1).OfferedBps()

	for i, load := range loads {
		// A fresh internet per load point — same topology every time
		// (generation seed is the campaign seed), with the engine
		// seeded per-point so load points draw independent traffic.
		nw, m := topo.Generate(tspec, seed)
		nw.InstallStaticRoutes()
		for _, g := range m.GatewayNames() {
			nw.Node(g).InstallQueuePolicy(e13GatewayQueue, policy)
		}
		spec := ws.WithRate(load * e13RefBps / bpsPerUnitRate)
		eng := workload.New(nw, m.HostNames(), spec, seed*1000+int64(i))
		eng.Arm(window)
		nw.RunFor(window + drain)
		sum := eng.Summarize(window)
		out.points = append(out.points, e13Point{load, sum})
		out.lastKernel = nw.Kernel()
	}

	// The collapse headline: where goodput peaks, and how far it has
	// fallen by the top of the sweep. collapse_ratio < 1 is the cliff.
	for _, p := range out.points {
		if p.sum.GoodputBps > out.peakGoodput {
			out.peakGoodput, out.kneeLoad = p.sum.GoodputBps, p.load
		}
	}
	last := out.points[len(out.points)-1]
	if out.peakGoodput > 0 {
		out.collapseRatio = last.sum.GoodputBps / out.peakGoodput
	}
	return out
}

// e13Hosts refuses a workload whose vj, naive, cc or ecn runE13 would
// overwrite with its cell's, rather than drop the value unseen; a knob
// the workload leaves unset is the cell's.
func e13Hosts(set, sc Params) error {
	if set.Workload == nil {
		return nil
	}
	ws, cell := set.Workload, e13tCell{Policy: sc.Policies[0], CC: sc.CCs[0]}
	if host := cell.workload(workload.Spec{}); ws.VJ && !host.VJ || ws.NaiveRTO && !host.NaiveRTO ||
		ws.CC != "" && ws.CC != host.CC || ws.ECN && !host.ECN {
		return fmt.Errorf("workload %s: E13's hosts are those of cc=%s at qdisc=%s; choose them with cc and qdisc",
			ws.Fields().Only("vj", "naive", "cc", "ecn"), cell.CC, cell.Policy.Kind)
	}
	return nil
}

// runE13 charts the collapse curve of p's sweep over p.Workload's mix.
// The first of p.Policies and of p.CCs make it one tournament cell, its
// hosts those E13-T's cell of that name runs: the recorded naive is the
// pre-1988 host, and any other response flattens the cliff. At an ecn
// qdisc the hosts offer ECN, as that cell's do.
func runE13(seed int64, p Params) Result {
	cell := e13tCell{Policy: p.Policies[0], CC: p.CCs[0]}
	out := e13Sweep(seed, e13Topo(), cell.workload(*p.Workload), cell.Policy, p.Loads, p.Window, p.Drain)
	points, lastKernel := out.points, out.lastKernel
	peakGoodput, kneeLoad, collapseRatio := out.peakGoodput, out.kneeLoad, out.collapseRatio
	last := points[len(points)-1]

	table := stats.Table{Header: []string{
		"offered", "goodput", "flows", "done", "jain", "rto sync", "burst", "fct p50", "retrans"}}
	for _, p := range points {
		sum := p.sum
		table.AddRow(
			fmt.Sprintf("%.2fx T1", p.load),
			stats.HumanRate(sum.GoodputBps),
			fmt.Sprint(sum.Started),
			fmt.Sprintf("%d (%.0f%%)", sum.Completed, 100*ratio(sum.Completed, sum.Started)),
			fmt.Sprintf("%.3f", sum.Jain),
			fmt.Sprintf("%.3f", sum.RTOSyncCorr),
			fmt.Sprintf("%.1f", sum.RetransBurstiness),
			fmt.Sprintf("%.2fs", sum.FCT.Percentile(50)),
			fmt.Sprint(sum.Retransmits),
		)
	}

	headline := fmt.Sprintf("goodput peaks at %.2fx T1 then falls to %.0f%% of peak at %.2fx — the network does more work to deliver less, the resource-management debt of the datagram architecture.",
		kneeLoad, 100*collapseRatio, last.load)
	if collapseRatio >= 1 || kneeLoad >= last.load {
		headline = fmt.Sprintf("no collapse: goodput still climbing at %.2fx T1 — with this workload the hosts' congestion response keeps the sweep on the capacity curve.", last.load)
	}
	res := Result{
		Table: table,
		Notes: []string{
			headline,
			"rto sync is the mean pairwise correlation of per-flow retransmission bursts: the era's fixed timers fire together, so every flow retransmits into the same full queues.",
		},
	}
	for i, p := range points {
		pre := fmt.Sprintf("l%d_", i)
		res.AddMetric(pre+"load", "xT1", p.load)
		res.AddMetric(pre+"offered", "bps", p.sum.OfferedBps)
		res.AddMetric(pre+"goodput", "bps", p.sum.GoodputBps)
		res.AddMetric(pre+"flows", "", float64(p.sum.Started))
		res.AddMetric(pre+"done", "", ratio(p.sum.Completed, p.sum.Started))
		res.AddMetric(pre+"jain", "", p.sum.Jain)
		res.AddMetric(pre+"rto_sync", "", p.sum.RTOSyncCorr)
		res.AddMetric(pre+"burstiness", "", p.sum.RetransBurstiness)
		res.AddMetric(pre+"fct_p50", "s", p.sum.FCT.Percentile(50))
		res.AddMetric(pre+"retrans", "", float64(p.sum.Retransmits))
	}
	res.AddMetric("peak_goodput", "bps", peakGoodput)
	res.AddMetric("knee_load", "xT1", kneeLoad)
	res.AddMetric("collapse_ratio", "", collapseRatio)
	res.AddMetric("collapsed", "", bool01(collapseRatio < 1 && kneeLoad < last.load))
	res.AddCounterSums("collapse", lastKernel)
	return res
}
