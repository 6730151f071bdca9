package exp

import (
	"cmp"
	"fmt"

	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// E13-T — the policy tournament. E13 shows what the 1988 architecture's
// unsolved resource-management problem cost; this experiment searches
// the two policy spaces the architecture left open — the gateway's
// queue discipline and the host's congestion response — by running
// every (policy × response) cell against the same generated internet
// and the same offered traffic, then scoring each cell on the collapse
// curve it produces. The grid is the era's actual design space:
// drop-tail vs RED early drop vs ECN marking at the gateway, and the
// pre-1988 window-blaster vs Tahoe vs Reno/NewReno(+ECN) at the host.
// A third axis — the topology the cells collapse on — is selectable
// (Params.Topo) but not crossed into the grid: one tournament runs on
// one internet, whose shape is named in every metric path, so
// leaderboards from different shapes never mix silently.

// e13tCell is one tournament cell: a gateway queue policy paired with a
// host congestion response.
type e13tCell struct {
	Policy phys.PolicySpec
	CC     string
}

// kind is the cell's policy label in metric paths and the leaderboard.
func (c e13tCell) kind() string {
	if c.Policy.Kind == "" {
		return phys.PolicyDropTail
	}
	return c.Policy.Kind
}

// name renders the cell as "<policy-kind>/<cc>".
func (c e13tCell) name() string { return c.kind() + "/" + c.CC }

// workload maps the cell onto the mix ws as host behavior: the naive
// response is the full pre-1988 host (go-back-N recovery, fixed
// no-backoff timer), while tahoe and reno ride the adaptive-RTO
// machinery. Hosts offer ECN whenever the gateways can mark — only reno
// answers the echo, so an ecn/naive cell measures marking wasted on
// deaf hosts.
func (c e13tCell) workload(ws workload.Spec) workload.Spec {
	if c.CC == tcp.CCNaive {
		ws.VJ, ws.NaiveRTO = false, true
	} else {
		ws.VJ, ws.NaiveRTO = true, false
	}
	ws.CC = c.CC
	ws.ECN = c.Policy.Kind == phys.PolicyECN
	return ws
}

// e13tGrid crosses the queue policies with the congestion responses;
// an empty axis means all of it, so the default is the full 3×4
// tournament.
func e13tGrid(policies []phys.PolicySpec, ccs []string) []e13tCell {
	policies = orSlice(policies, []phys.PolicySpec{{Kind: phys.PolicyDropTail}, {Kind: phys.PolicyRED}, {Kind: phys.PolicyECN}})
	ccs = orSlice(ccs, []string{tcp.CCNaive, tcp.CCTahoe, tcp.CCReno, tcp.CCNewReno})
	var cells []e13tCell
	for _, p := range policies {
		for _, cc := range ccs {
			cells = append(cells, e13tCell{Policy: p, CC: cc})
		}
	}
	return cells
}

// e13tLoads is the tournament's offered-load sweep: below the knee, at
// the knee drop-tail/naive shows, and twice past it — E13's full curve
// shows the cliff only bites beyond 16x, so the sweep must reach 32x
// for collapse ratios to separate the cells. Four points per cell keep
// the full 9-cell grid affordable.
var e13tLoads = []float64{1, 4, 16, 32}

// The tournament measures over E13's own window: the retransmission
// storm that produces the cliff takes ~10 simulated seconds to build,
// so a shorter window under-reports the collapse and flattens the grid.
const (
	e13tWindow = e13Window
	e13tDrain  = e13Drain
)

// e13tWith binds the tournament to Params: Policies × CCs restrict the
// grid, Topo replaces the internet the cells collapse on — its shape is
// the topology id carried in every metric path and leaderboard entry.
func e13tWith(p Params) func(seed int64) Result {
	tspec := or(p.Topo, e13Topo())
	cells := e13tGrid(p.Policies, p.CCs)
	loads := orSlice(p.Loads, e13tLoads)
	window, drain := cmp.Or(p.Window, e13tWindow), cmp.Or(p.Drain, e13tDrain)
	return func(seed int64) Result {
		return runE13T(seed, string(tspec.Shape), tspec, cells, loads, window, drain)
	}
}

func runE13T(seed int64, topoID string, tspec topo.Spec, cells []e13tCell, loads []float64, window, drain sim.Duration) Result {
	table := stats.Table{Header: []string{
		"policy", "cc", "collapse", "peak goodput", "knee", "jain", "fct p99", "done"}}

	res := Result{
		ID:    "E13-T",
		Title: fmt.Sprintf("Policy tournament: gateway queue policy x host congestion response on the collapse curve (%s internet)", topoID),
	}

	type scored struct {
		cell e13tCell
		out  e13Outcome
	}
	ran := make([]scored, 0, len(cells))
	for _, cell := range cells {
		// Every cell sees the same seed: identical topology, identical
		// arrival process — only the policies differ.
		out := e13Sweep(seed, tspec, cell.workload(E13Workload()), cell.Policy, loads, window, drain)
		ran = append(ran, scored{cell, out})

		top := out.points[len(out.points)-1].sum
		table.AddRow(
			cell.Policy.String(),
			cell.CC,
			fmt.Sprintf("%.2f", out.collapseRatio),
			stats.HumanRate(out.peakGoodput),
			fmt.Sprintf("%.1fx", out.kneeLoad),
			fmt.Sprintf("%.3f", top.Jain),
			fmt.Sprintf("%.2fs", top.FCT.Percentile(99)),
			fmt.Sprintf("%.0f%%", 100*ratio(top.Completed, top.Started)),
		)

		labels := []string{topoID, cell.kind(), cell.CC}
		res.AddLabelled("t", labels, "collapse_ratio", "", out.collapseRatio)
		res.AddLabelled("t", labels, "peak_goodput", "bps", out.peakGoodput)
		res.AddLabelled("t", labels, "knee_load", "xT1", out.kneeLoad)
		res.AddLabelled("t", labels, "jain", "", top.Jain)
		res.AddLabelled("t", labels, "fct_p99", "s", top.FCT.Percentile(99))
		res.AddLabelled("t", labels, "done", "", ratio(top.Completed, top.Started))
	}
	res.Table = table

	// The headline: best and worst collapse ratio across the grid.
	best, worst := ran[0], ran[0]
	for _, s := range ran[1:] {
		if s.out.collapseRatio > best.out.collapseRatio {
			best = s
		}
		if s.out.collapseRatio < worst.out.collapseRatio {
			worst = s
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%s holds %.0f%% of peak goodput at %.0fx T1 where %s holds %.0f%% — the resource-management answer the 1988 architecture had room for but did not ship.",
		best.cell.name(), 100*best.out.collapseRatio, loads[len(loads)-1],
		worst.cell.name(), 100*worst.out.collapseRatio))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"every cell sees the same %q topology and the same offered traffic per seed; rank cells with the campaign leaderboard (darpanet/tournament/v2), not single-seed eyeballing.", topoID))
	return res
}
