package core

import (
	"cmp"
	"math/bits"
	"slices"

	"darpanet/internal/ipv4"
	"darpanet/internal/stack"
)

// InstallStaticRoutes computes shortest paths over the current topology
// with a central oracle and installs static routes on every node — the
// "routing without the distributed protocol" baseline, also handy for
// topologies whose tests do not exercise routing dynamics.
//
// The computation is one all-pairs pass: a reverse BFS toward each
// network gives every node its next hop toward it. A network that one
// gateway cuts off from the rest of the internet (a stub domain) is
// searched on its own side only: every node beyond that gateway inherits
// the gateway's one search outward, shared by all the domain's networks
// (computeStaticRoutes). The per-node O(n²) walk this replaced made
// 200-gateway internets (see internal/topo) unbuildable in reasonable
// time.
//
// Later topology changes (AttachNodeToNet, AddHost/AddGateway)
// recompute the oracle automatically, so nodes attached mid-run are
// routed like everyone else. Every node keeps its exact per-net table:
// aggregation is visible (a collapsed default or a block forwards
// datagrams for addresses no net owns instead of reporting no-route
// locally), and the experiments that count NoRoute drops or golden-trace
// the small topologies run on this entry.
func (nw *Network) InstallStaticRoutes() {
	nw.staticOracle = true
	nw.recomputeStaticRoutes()
}

// recomputeStaticRoutes re-runs the oracle, unaggregated, over the
// internet nw belongs to: on a serial network, nw alone.
func (nw *Network) recomputeStaticRoutes() { installStaticRoutes(nw.in.regions, false) }

// InstallStaticRoutesAcross runs the static oracle globally over a set
// of region networks joined by AddCrossTrunk boundary links: one
// all-pairs computation over the union graph, crossing shard boundaries
// exactly where a boundary net holds a station in each region. It
// aggregates disjoint nets — a 2000-gateway internet would otherwise
// hold a route per net on every node — in two ways:
//   - a node whose next hop is the same toward every net it reaches (the
//     stub tier) gets one default route;
//   - every other node covers each run of consecutive nets it reaches
//     through one next hop with the fewest aligned blocks that hold the
//     run's nets and no other net (hopRun).
//
// Every address a net owns is forwarded exactly as under the per-net
// table, through the same next hop and interface, with a failed
// interface's route falling through the same way; only an address no
// net owns may now be forwarded where the per-net table has no route.
// The 2000-gateway internet holds 31 420 routes instead of 958 750.
// Where one net's prefix holds another's, blocks would not be exact, and
// every node gets its route per net.
//
// Call it after the sharded topology is final: unlike the per-network
// oracle it does not re-run on later topology changes, and a region's
// own InstallStaticRoutes afterwards would recompute every region's
// tables unaggregated.
func InstallStaticRoutesAcross(regions []*Network) { installStaticRoutes(regions, true) }

// installStaticRoutes is the one body behind both oracle entries: drop
// every topology-derived static route the regions' nodes hold, then
// re-run the all-pairs computation over the regions' union. Static
// routes whose prefix is not one of the topology's networks (operator-
// set defaults via SetDefaultRoute) are left alone; the aggregates an
// earlier run installed — collapsed defaults and blocks — are retracted
// via aggRoutes, which remembers them node by node.
func installStaticRoutes(regions []*Network, aggregate bool) {
	agg := regions[0].in.aggRoutes
	// Merge: nodes in region order, nets by prefix. A boundary net is a
	// net in both its regions; its stations, one in each, are the edge
	// the BFS crosses regions on, and come in attach order as on any net,
	// so the BFS breaks equal-cost ties as it does on the serial build.
	var nodes []*stack.Node
	var nets []*netInfo
	for _, nw := range regions {
		for _, name := range nw.order {
			nodes = append(nodes, nw.nodes[name])
		}
		for _, name := range nw.netOrder {
			nets = append(nets, nw.nets[name])
		}
	}
	// A boundary net's two halves share its stations: either will do.
	slices.SortFunc(nets, func(a, b *netInfo) int { return a.prefix.Compare(b.prefix) })
	nets = slices.CompactFunc(nets, func(a, b *netInfo) bool { return a.prefix == b.prefix })

	ops := make([]stack.Route, len(nodes)) // each node's operator default, if any
	for i, n := range nodes {
		held := agg[n]
		n.Table.RemoveIf(func(r stack.Route) bool {
			if r.Source != stack.SourceStatic {
				return false
			}
			_, isNet := netAt(nets, r.Prefix)
			drop := isNet || slices.Contains(held, r.Prefix)
			if !drop && r.Prefix.Bits == 0 {
				ops[i] = r
			}
			return drop
		})
		delete(agg, n)
	}

	computeStaticRoutes(nodes, nets, ops, aggregate, func(n *stack.Node, p ipv4.Prefix) { agg[n] = append(agg[n], p) })
}

// arrival is how the oracle's BFS toward one net reached a node: the
// next hop and the interface toward it, and the gateway hops it takes.
type arrival struct {
	via     ipv4.Addr
	ifIndex int32
	dist    int32
}

// hopRun is one node's run of consecutive nets, in sorted-prefix order,
// that it reaches through one next hop: nets[first:end] through via and
// ifIndex, dist hops away at the nearest. first == end is no run. A run
// ends at a net the node reaches through another next hop, at a net it
// is attached to, or at a net it does not reach: the next net offered to
// extend is then not end.
type hopRun struct {
	first, end int32
	arrival
}

// extend adds net dn, reached as a, when dn continues the run: the next
// net in order, through the same next hop.
func (r *hopRun) extend(dn int32, a arrival) bool {
	if r.end == r.first || dn != r.end || a.via != r.via || a.ifIndex != r.ifIndex {
		return false
	}
	r.end++
	r.dist = min(r.dist, a.dist)
	return true
}

// cover hands add the run's routes: the fewest disjoint aligned blocks
// that hold every address of the run's nets and none of any other net,
// through the run's next hop, at its smallest hop count. A block may take
// addresses no net owns — between the run's nets, or out toward its
// neighbours — but is never 0.0.0.0/0, the prefix of a collapsed or an
// operator's default. nets must be sorted and pairwise disjoint.
//
// So every owned address matches exactly one of the node's static routes
// before and after, with the same next hop and interface; a block out of
// a down interface falls through exactly as the net's own route did.
// (ORTC, the optimal cover, nests prefixes and would lose that.)
func (r *hopRun) cover(nets []*netInfo, add func(stack.Route)) {
	if r.end == r.first {
		return
	}
	floor, ceil := uint64(0), uint64(1<<32-1) // what a block may take
	if r.first > 0 {
		floor = lastAddr(nets[r.first-1].prefix) + 1
	}
	if int(r.end) < len(nets) {
		ceil = uint64(nets[r.end].prefix.Addr) - 1
	}
	for at, hi := uint64(nets[r.first].prefix.Addr), lastAddr(nets[r.end-1].prefix); at <= hi; {
		// The aligned blocks holding at nest, so the largest that stays
		// inside [floor, ceil] covers the most; after the first block,
		// it starts at at.
		size := uint64(1)
		for size < 1<<31 {
			if start := at &^ (2*size - 1); start < floor || start+2*size-1 > ceil {
				break
			}
			size *= 2
		}
		start := at &^ (size - 1)
		add(stack.Route{
			Prefix:  ipv4.Prefix{Addr: ipv4.Addr(start), Bits: 32 - bits.TrailingZeros64(size)},
			Via:     r.via,
			IfIndex: int(r.ifIndex),
			Metric:  int(r.dist),
			Source:  stack.SourceStatic,
		})
		at = start + size
	}
}

// lastAddr is the last address p holds.
func lastAddr(p ipv4.Prefix) uint64 { return uint64(p.Addr) | (1<<(32-p.Bits) - 1) }

// netAt finds the net with prefix p among nets, sorted by prefix.
func netAt(nets []*netInfo, p ipv4.Prefix) (int, bool) {
	return slices.BinarySearchFunc(nets, p, func(ni *netInfo, p ipv4.Prefix) int { return ni.prefix.Compare(p) })
}

// disjoint reports whether no two of the sorted nets share an address.
func disjoint(nets []*netInfo) bool {
	for i := 1; i < len(nets); i++ {
		if lastAddr(nets[i-1].prefix) >= uint64(nets[i].prefix.Addr) {
			return false
		}
	}
	return true
}

// keptRun is a run its node's sweep has closed: kept, with the node's
// index, until the sweep ends and the node decides what its runs become.
type keptRun struct {
	hopRun
	node int32
}

// computeStaticRoutes is the static oracle's core: a multi-source
// reverse BFS toward each destination net over the station graph, one
// sweep over the nets in sorted-prefix order, giving every node that can
// reach a net its next hop (metric = gateway hops) toward it. nets are
// sorted by prefix, one per prefix, so each node's routes install
// deterministically.
//
// The graph is flattened once into integer-indexed arrays — a CSR
// adjacency, epoch-stamped visit marks — so a BFS touches no maps and
// allocates nothing: at 2000 gateways a pointer-keyed scratch map spends
// the whole recompute hashing. Edge order mirrors the original nested
// iteration exactly (interfaces in attach order, stations in attach
// order), so the computed routes, and the order they install in, match
// the historical per-net walk.
//
// Stub domains inherit. One low-link DFS finds each node's top: the
// outermost forwarding node that cuts it off from the rest in a domain
// of at most half of all nodes (a larger one leaves less beyond it than
// the searches inside it cost). A net whose stations, but for that
// node, all have it for top is anchored there. A node beyond the anchor
// v reaches such a net only through v, and the BFS toward the net
// reaches it just as v's own BFS outward (its tail) does, dist raised by
// v's. So the BFS toward the net stays inside v's domain, and the tail
// runs once for the run of consecutive nets v anchors — a transit
// gateway's stub nets — and serves every node beyond. A host relays
// nothing, but the DFS joins its nets through it, so that no host is
// reached from both sides of a cut.
//
// Without aggregate, or where one net's prefix holds another's, every
// node gets a static route per net it reaches, as the sweep reaches it.
// With aggregate over disjoint nets — every generated internet's /24s
// are — a node instead extends its open run (hopRun) by each net, a node
// beyond an anchor by every consecutive net the anchor reaches at once,
// and keeps a run the next net does not continue. When the sweep ends,
// each node decides from its own runs. If they all leave through one
// next hop and interface, it collapses to a single 0.0.0.0/0 route,
// unless it holds an operator default (ops, set by SetDefaultRoute): to
// the same next hop it stands for the collapse, to another the node does
// not collapse. A node that does not collapse covers each run with
// blocks, in run order. note records each default and block installed,
// so a recompute can retract it.
func computeStaticRoutes(nodes []*stack.Node, nets []*netInfo, ops []stack.Route, aggregate bool, note func(*stack.Node, ipv4.Prefix)) {
	idxOf := make(map[*stack.Node]int32, len(nodes))
	for i, n := range nodes {
		idxOf[n] = int32(i)
	}
	// A net of s stations gives at most s(s-1) edges.
	stations, links := 0, 0
	for _, ni := range nets {
		stations += len(ni.stations)
		links += len(ni.stations) * (len(ni.stations) - 1)
	}
	type edge struct {
		to, net int32
		ifIdx   int32     // incoming interface at the reached node
		via     ipv4.Addr // next-hop address (the relaying node's)
	}
	estart := make([]int32, len(nodes)+1)
	edges := make([]edge, 0, links)
	for i, b := range nodes {
		estart[i] = int32(len(edges))
		for _, bi := range b.Interfaces() {
			bn, ok := netAt(nets, bi.Prefix)
			if !ok {
				continue
			}
			for _, st := range nets[bn].stations {
				if st.node == b {
					continue
				}
				edges = append(edges, edge{
					to: idxOf[st.node], net: int32(bn),
					ifIdx: int32(st.ifc.Index), via: bi.Addr,
				})
			}
		}
	}
	estart[len(nodes)] = int32(len(edges))

	// The DFS marks the root of each subtree a forwarding parent cuts off
	// with it; pre-order then hands every node its outermost mark.
	half := int32(len(nodes) / 2)
	disc, low, parent, top := make([]int32, len(nodes)), make([]int32, len(nodes)), make([]int32, len(nodes)), make([]int32, len(nodes))
	order := make([]int32, 0, len(nodes))
	var dfs func(u int32)
	dfs = func(u int32) {
		order = append(order, u)
		disc[u], low[u], top[u] = int32(len(order)), int32(len(order)), -1
		for _, e := range edges[estart[u]:estart[u+1]] {
			if w := e.to; disc[w] != 0 {
				low[u] = min(low[u], disc[w])
			} else {
				parent[w] = u
				dfs(w)
				low[u] = min(low[u], low[w])
				if low[w] >= disc[u] && nodes[u].Forwarding && int32(len(order))-disc[w]+1 <= half {
					top[w] = u
				}
			}
		}
	}
	for u := range int32(len(nodes)) {
		if disc[u] == 0 {
			parent[u] = -1
			dfs(u)
		}
	}
	for _, u := range order {
		if p := parent[u]; p >= 0 && top[p] >= 0 {
			top[u] = top[p]
		}
	}
	// A net's stations are a clique, all below the first the DFS reached:
	// their anchor is its top, else it or none, so their largest top.
	anchor := make([]int32, len(nets))
	for dn, ni := range nets {
		anchor[dn] = -1
		for _, st := range ni.stations {
			anchor[dn] = max(anchor[dn], top[idxOf[st.node]])
		}
	}

	arr := make([]arrival, len(nodes))
	mark := make([]uint32, len(nodes)) // visited in epoch e iff mark==e
	queue := make([]int32, 0, len(nodes))
	var epoch uint32

	// bfs runs the multi-source reverse BFS for destination net dn,
	// leaving the reached set (sources first, distance order) in queue;
	// from dn's anchor v it steps only into v's domain. For dn < 0 it runs
	// v's tail instead: from v alone, every way.
	bfs := func(dn, v int32) {
		epoch++
		queue = queue[:0]
		stop := v
		if dn < 0 {
			stop, mark[v], arr[v] = -1, epoch, arrival{}
			queue = append(queue, v)
		} else {
			// Multi-source start: every station of the destination net is
			// at distance 0 (it holds the direct route already).
			for _, st := range nets[dn].stations {
				if i := idxOf[st.node]; mark[i] != epoch {
					mark[i], arr[i] = epoch, arrival{}
					queue = append(queue, i)
				}
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			b := queue[qi]
			// A path toward the net relays through b, so b must forward;
			// hosts terminate the search (they still *receive* routes —
			// they were enqueued — they just route nothing onward).
			if !nodes[b].Forwarding {
				continue
			}
			d := arr[b].dist
			for _, e := range edges[estart[b]:estart[b+1]] {
				if e.net == dn || mark[e.to] == epoch || b == stop && top[e.to] != stop {
					continue
				}
				mark[e.to] = epoch
				arr[e.to] = arrival{via: e.via, ifIndex: e.ifIdx, dist: d + 1}
				queue = append(queue, e.to)
			}
		}
	}

	aggregate = aggregate && disjoint(nets)
	var runs []hopRun  // each node's open run
	var kept []keptRun // the runs the sweep has closed, in closing order
	if aggregate {
		// A node's run ends at each net it is attached to, so the sweep
		// closes about one run per station, and more where a node's next
		// hop changes.
		runs = make([]hopRun, len(nodes))
		kept = make([]keptRun, 0, stations)
	}
	// reach hands each node i of reached, which its BFS reached as at[i],
	// nets[first:end] (one net unless aggregating), off hops further away.
	reach := func(reached []int32, at []arrival, first, end, off int32) {
		for _, i := range reached {
			a := at[i]
			a.dist += off
			switch {
			case a.dist == 0:
				// attached directly; the direct route wins anyway
			case !aggregate:
				nodes[i].Table.Add(stack.Route{
					Prefix:  nets[first].prefix,
					Via:     a.via,
					IfIndex: int(a.ifIndex),
					Metric:  int(a.dist),
					Source:  stack.SourceStatic,
				})
			default:
				if !runs[i].extend(first, a) {
					if runs[i].end > runs[i].first {
						kept = append(kept, keptRun{runs[i], i})
					}
					runs[i] = hopRun{first: first, arrival: a}
				}
				runs[i].end = end // the rest of the nets follow the first
			}
		}
	}

	// The sweep takes the nets in groups: an unanchored net alone, or the
	// consecutive nets of one anchor v. far holds the nodes beyond v, and
	// tailArr how v's tail reached them; offs is v's dist toward each net
	// of the group, or -1 where v does not reach it.
	var far, offs []int32
	tailArr := make([]arrival, len(nodes))
	tailOf := int32(-1)
	for first := 0; first < len(nets); {
		v, end := anchor[first], first+1
		for v >= 0 && end < len(nets) && anchor[end] == v {
			end++
		}
		if v >= 0 && v != tailOf {
			bfs(-1, v)
			far, tailOf = far[:0], v
			for _, u := range queue {
				if u != v && top[u] != v {
					far = append(far, u)
					tailArr[u] = arr[u]
				}
			}
		}
		offs = offs[:0]
		for dn := first; dn < end; dn++ {
			bfs(int32(dn), v)
			reach(queue, arr, int32(dn), int32(dn)+1, 0)
			if v >= 0 && mark[v] == epoch {
				offs = append(offs, arr[v].dist)
			} else {
				offs = append(offs, -1)
			}
		}
		// Beyond v, a node reaches each run of nets v reaches through v,
		// the nearest of them min(offs) hops further than v's tail says.
		for i := 0; i < len(offs); i++ {
			if offs[i] < 0 {
				continue
			}
			j, off := i+1, offs[i]
			for aggregate && j < len(offs) && offs[j] >= 0 {
				off = min(off, offs[j])
				j++
			}
			reach(far, tailArr, int32(first+i), int32(first+j), off)
			i = j - 1
		}
		first = end
	}
	if !aggregate {
		return
	}

	// Bucket the kept runs by node, each node's in run order; its open
	// run follows them.
	slices.SortFunc(kept, func(a, b keptRun) int { return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.first, b.first)) })
	for i, n := range nodes {
		last := runs[i]
		if last.end == last.first {
			continue // reaches no net
		}
		own := 0
		oneHop := true
		for ; own < len(kept) && kept[own].node == int32(i); own++ {
			oneHop = oneHop && kept[own].via == last.via && kept[own].ifIndex == last.ifIndex
		}
		closed := kept[:own]
		kept = kept[own:]
		install := func(r stack.Route) {
			n.Table.Add(r)
			note(n, r.Prefix)
		}
		if oneHop {
			switch op := ops[i]; {
			case op.Source != stack.SourceStatic:
				install(stack.Route{Via: last.via, IfIndex: int(last.ifIndex), Metric: 1, Source: stack.SourceStatic})
				continue
			case op.Via == last.via && op.IfIndex == int(last.ifIndex):
				continue // the operator default already points there
			}
		}
		for _, r := range closed {
			r.cover(nets, install)
		}
		last.cover(nets, install)
	}
}
