// Package survive is the systematic half of the paper's #1 goal:
// survivability analysis per the CMU/SEI survivable-systems method.
// E11 proved recovery on hand-picked failures; this package finds a
// generated internet's structural weak points — articulation gateways,
// bridge trunks, and minimal 2-cuts of the bipartite gateway/net graph
// — and converts them into worst-case compound fault.Schedules
// (simultaneous multi-cut, targeted crashes, cut-under-crash), plus
// seeded-random baselines at matched failure budgets. The gap between
// the targeted and random frontiers is the survivability margin E14
// measures.
//
// Everything here reads a generated topo.Manifest's graph — its
// NodeDefs, NetDefs and the rows between them — never the live
// Network, and is deterministic: the same manifest (and, for random
// schedules, the same rng state) always yields the same analysis and
// schedules.
package survive

import (
	"math"
	"math/rand"
	"sort"

	"darpanet/internal/fault"
	"darpanet/internal/sim"
	"darpanet/internal/topo"
)

// Analysis is the weak-point catalogue of one manifest. A gateway is
// named by its NodeDefs index and a net by its NetDefs index; hosts are
// not vertices of the graph, only weight on the nets they sit on.
type Analysis struct {
	// CutGateways are gateways whose crash alone increases the count of
	// service components (groups of gateways and host-bearing nets that
	// can still reach each other).
	CutGateways []int
	// CutNets are trunk nets whose cut alone increases it — the
	// bridges of the internet.
	CutNets []int
	// CutPairs are minimal 2-cuts among trunks: cutting both splits
	// service, cutting either alone does not. Pairs are drawn from the
	// highest-degree trunks (bounded search), sorted lexicographically.
	CutPairs [][2]int

	m *topo.Manifest
	// hostsOn[n] counts the hosts on net n, the service endpoints
	// stranded if it is severed; gwsOn[n] counts its gateway
	// attachments.
	hostsOn, gwsOn []int
	baseComps      int
}

// trunk reports whether net n carries transit: two or more gateway
// attachments. Only trunks are meaningful cut targets — severing a
// single-gateway stub LAN destroys its endpoints outright rather than
// partitioning the internet.
func (an *Analysis) trunk(n int) bool { return an.gwsOn[n] >= 2 }

// maxPairCandidates bounds the 2-cut edge-subset search: pairs are
// drawn from this many trunks, highest gateway-degree first, keeping
// the search O(k²) censuses on internets with thousands of trunks.
const maxPairCandidates = 64

// Analyze catalogues the manifest's weak points. Candidate vertices
// come from one Tarjan low-link pass over the bipartite graph; each
// candidate (and each candidate pair) is then verified by an exact
// union-find census of the damaged graph, because an articulation
// vertex of the incidence graph need not split *service* — it may
// merely dangle a hostless net.
func Analyze(m *topo.Manifest) *Analysis {
	V, N := len(m.NodeDefs), len(m.NetDefs)
	an := &Analysis{m: m, hostsOn: make([]int, N), gwsOn: make([]int, N)}
	for n := range m.NetDefs {
		for _, v := range m.NetNodes(n) {
			if m.NodeDefs[v].Forwarding {
				an.gwsOn[n]++
			} else {
				an.hostsOn[n]++
			}
		}
	}
	gwDown := make([]bool, V)
	netDown := make([]bool, N)
	an.baseComps, _ = an.census(gwDown, netDown)

	art := an.articulation()
	for g, nd := range m.NodeDefs {
		if !nd.Forwarding || !art[g] {
			continue
		}
		gwDown[g] = true
		if c, _ := an.census(gwDown, netDown); c > an.baseComps {
			an.CutGateways = append(an.CutGateways, g)
		}
		gwDown[g] = false
	}
	cutNet := make(map[int]bool)
	for n := range m.NetDefs {
		if !an.trunk(n) || !art[V+n] {
			continue
		}
		netDown[n] = true
		if c, _ := an.census(gwDown, netDown); c > an.baseComps {
			an.CutNets = append(an.CutNets, n)
			cutNet[n] = true
		}
		netDown[n] = false
	}

	// Minimal 2-cuts: pairs of non-bridge trunks whose joint loss
	// splits service. Bridges are excluded — a pair containing one is
	// not minimal.
	var cand []int
	for n := range m.NetDefs {
		if an.trunk(n) && !cutNet[n] {
			cand = append(cand, n)
		}
	}
	sort.SliceStable(cand, func(i, j int) bool {
		return an.gwsOn[cand[i]] > an.gwsOn[cand[j]]
	})
	if len(cand) > maxPairCandidates {
		cand = cand[:maxPairCandidates]
	}
	for i := 0; i < len(cand); i++ {
		for j := i + 1; j < len(cand); j++ {
			a, b := cand[i], cand[j]
			if a > b {
				a, b = b, a
			}
			netDown[a], netDown[b] = true, true
			if c, _ := an.census(gwDown, netDown); c > an.baseComps {
				an.CutPairs = append(an.CutPairs, [2]int{a, b})
			}
			netDown[a], netDown[b] = false, false
		}
	}
	sort.Slice(an.CutPairs, func(i, j int) bool {
		if an.CutPairs[i][0] != an.CutPairs[j][0] {
			return an.CutPairs[i][0] < an.CutPairs[j][0]
		}
		return an.CutPairs[i][1] < an.CutPairs[j][1]
	})
	return an
}

// census unions the gateway/net graph with the masked elements
// removed and reports the service-component count and the weight of
// the largest component. Service vertices are up gateways and up nets
// carrying hosts; weight counts gateways plus hosts, so "largest"
// tracks how much of the internet's population the biggest surviving
// island holds. Vertex v < len(NodeDefs) is node v, and vertex
// len(NodeDefs)+n is net n.
func (an *Analysis) census(gwDown, netDown []bool) (comps, largest int) {
	m := an.m
	V := len(m.NodeDefs)
	parent := make([]int, V+len(m.NetDefs))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for g, nd := range m.NodeDefs {
		if !nd.Forwarding || gwDown[g] {
			continue
		}
		for _, n := range m.NodeNets(g) {
			if netDown[n] {
				continue
			}
			if rg, rn := find(g), find(V+n); rg != rn {
				parent[rg] = rn
			}
		}
	}
	weight := make([]int, len(parent))
	for g, nd := range m.NodeDefs {
		if nd.Forwarding && !gwDown[g] {
			weight[find(g)]++
		}
	}
	for n, h := range an.hostsOn {
		if !netDown[n] && h > 0 {
			weight[find(V+n)] += h
		}
	}
	for _, w := range weight {
		if w > 0 {
			comps++
			largest = max(largest, w)
		}
	}
	return comps, largest
}

// articulation runs one Tarjan low-link DFS over the gateway/net graph,
// numbered as census numbers it, and marks every articulation vertex.
func (an *Analysis) articulation() []bool {
	m := an.m
	V := len(m.NodeDefs)
	disc := make([]int, V+len(m.NetDefs))
	low := make([]int, len(disc))
	art := make([]bool, len(disc))
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	neighbors := func(v int, f func(int)) {
		if v < V {
			for _, n := range m.NodeNets(v) {
				f(V + n)
			}
			return
		}
		for _, g := range m.NetNodes(v - V) {
			if m.NodeDefs[g].Forwarding {
				f(g)
			}
		}
	}
	var dfs func(v, parent int)
	dfs = func(v, parent int) {
		disc[v] = timer
		low[v] = timer
		timer++
		children := 0
		neighbors(v, func(w int) {
			if disc[w] == -1 {
				children++
				dfs(w, v)
				if low[w] < low[v] {
					low[v] = low[w]
				}
				if parent != -1 && low[w] >= disc[v] {
					art[v] = true
				}
			} else if w != parent && disc[w] < low[v] {
				low[v] = disc[w]
			}
		})
		if parent == -1 && children > 1 {
			art[v] = true
		}
	}
	for v := range disc {
		if disc[v] == -1 && (v >= V || m.NodeDefs[v].Forwarding) {
			dfs(v, -1)
		}
	}
	return art
}

// Budget is a failure budget: how much infrastructure an attack (or
// accident) takes out at once.
type Budget struct {
	Cuts    int // trunk nets severed
	Crashes int // gateways killed
}

// BudgetFor scales a fraction of infrastructure lost to a concrete
// budget: frac of the trunks (at least one — a campaign cell that cuts
// nothing measures nothing) and frac of the gateways, both rounded to
// nearest.
func (an *Analysis) BudgetFor(frac float64) Budget {
	trunks := 0
	for n := range an.gwsOn {
		if an.trunk(n) {
			trunks++
		}
	}
	gateways := an.m.Gateways
	cuts := int(math.Round(frac * float64(trunks)))
	if cuts < 1 {
		cuts = 1
	}
	if cuts > trunks {
		cuts = trunks
	}
	crashes := min(int(math.Round(frac*float64(gateways))), gateways)
	return Budget{Cuts: cuts, Crashes: crashes}
}

// Targeted spends the budget as an adversary would: a greedy attack on
// the working graph, each round killing the gateway or cutting the
// trunk that maximizes service fragmentation (most components,
// smallest largest-island on ties), with a 2-cut lookahead — when no
// single remaining trunk splits anything, two budget units go to the
// best minimal cut pair. Crashes land first so cuts compound on the
// crashed graph (cut-under-crash). Every step fires at the same
// instant `at`, making the whole attack one compound event for the
// injector. Deterministic: ties break on the lowest index.
func (an *Analysis) Targeted(b Budget, at sim.Duration) fault.Schedule {
	m := an.m
	gwDown := make([]bool, len(m.NodeDefs))
	netDown := make([]bool, len(m.NetDefs))
	s := fault.Schedule{Name: "targeted"}

	// eval scores hypothetically removing one more element.
	evalGw := func(g int) (int, int) {
		gwDown[g] = true
		c, l := an.census(gwDown, netDown)
		gwDown[g] = false
		return c, l
	}
	evalNet := func(n int) (int, int) {
		netDown[n] = true
		c, l := an.census(gwDown, netDown)
		netDown[n] = false
		return c, l
	}
	beats := func(c, l, bestC, bestL int) bool {
		return c > bestC || (c == bestC && l < bestL)
	}

	for i := 0; i < b.Crashes; i++ {
		best, bc, bl := -1, -1, 0
		for g, nd := range m.NodeDefs {
			if !nd.Forwarding || gwDown[g] {
				continue
			}
			if c, l := evalGw(g); best == -1 || beats(c, l, bc, bl) {
				best, bc, bl = g, c, l
			}
		}
		if best < 0 {
			break
		}
		gwDown[best] = true
		s.Steps = append(s.Steps, fault.Step{At: at, Op: fault.OpCrash, Target: m.NodeDefs[best].Name})
	}

	curComps, _ := an.census(gwDown, netDown)
	for left := b.Cuts; left > 0; {
		best, bc, bl := -1, -1, 0
		for n := range m.NetDefs {
			if !an.trunk(n) || netDown[n] {
				continue
			}
			if c, l := evalNet(n); best == -1 || beats(c, l, bc, bl) {
				best, bc, bl = n, c, l
			}
		}
		if best < 0 {
			break
		}
		if bc <= curComps && left >= 2 {
			// No single trunk splits what's left; a minimal 2-cut might.
			pBest, pc, pl := -1, -1, 0
			for pi, pair := range an.CutPairs {
				if netDown[pair[0]] || netDown[pair[1]] {
					continue
				}
				netDown[pair[0]], netDown[pair[1]] = true, true
				c, l := an.census(gwDown, netDown)
				netDown[pair[0]], netDown[pair[1]] = false, false
				if pBest == -1 || beats(c, l, pc, pl) {
					pBest, pc, pl = pi, c, l
				}
			}
			if pBest >= 0 && pc > bc {
				pair := an.CutPairs[pBest]
				netDown[pair[0]], netDown[pair[1]] = true, true
				s.Steps = append(s.Steps,
					fault.Step{At: at, Op: fault.OpCut, Target: m.NetDefs[pair[0]].Name},
					fault.Step{At: at, Op: fault.OpCut, Target: m.NetDefs[pair[1]].Name})
				left -= 2
				curComps = pc
				continue
			}
		}
		netDown[best] = true
		s.Steps = append(s.Steps, fault.Step{At: at, Op: fault.OpCut, Target: m.NetDefs[best].Name})
		left--
		curComps = bc
	}
	return s
}

// RandomSchedule spends the same budget blindly: crashes and cuts drawn
// uniformly without replacement from the gateways and trunks, all at
// instant `at` — the matched-budget baseline the targeted frontier is
// measured against. The same rng state always yields the same
// schedule.
func (an *Analysis) RandomSchedule(b Budget, rng *rand.Rand, at sim.Duration) fault.Schedule {
	s := fault.Schedule{Name: "random"}
	gateways := an.m.GatewayNames()
	for _, g := range rng.Perm(len(gateways))[:min(b.Crashes, len(gateways))] {
		s.Steps = append(s.Steps, fault.Step{At: at, Op: fault.OpCrash, Target: gateways[g]})
	}
	var trunks []int
	for n := range an.gwsOn {
		if an.trunk(n) {
			trunks = append(trunks, n)
		}
	}
	for _, i := range rng.Perm(len(trunks))[:min(b.Cuts, len(trunks))] {
		s.Steps = append(s.Steps, fault.Step{At: at, Op: fault.OpCut, Target: an.m.NetDefs[trunks[i]].Name})
	}
	return s
}
