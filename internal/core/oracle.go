package core

import (
	"slices"

	"darpanet/internal/ipv4"
	"darpanet/internal/stack"
)

// InstallStaticRoutes computes shortest paths over the current topology
// with a central oracle and installs static routes on every node — the
// "routing without the distributed protocol" baseline, also handy for
// topologies whose tests do not exercise routing dynamics.
//
// The computation is one all-pairs pass: a reverse BFS per network over
// the node graph memoizes, for every node, the next hop toward that
// network. With the prefix index this is O(nets · edges) total — the
// per-node O(n²) walk it replaced made 200-gateway internets (see
// internal/topo) unbuildable in reasonable time.
//
// Later topology changes (AttachNodeToNet, AddHost/AddGateway)
// recompute the oracle automatically, so nodes attached mid-run are
// routed like everyone else. Every node keeps its exact per-net table:
// default-route collapse is visible (a collapsed node forwards
// datagrams for *unknown* destinations toward its uplink instead of
// reporting no-route locally), and the experiments that count NoRoute
// drops or golden-trace the small topologies run on this entry.
func (nw *Network) InstallStaticRoutes() {
	nw.staticOracle = true
	nw.recomputeStaticRoutes()
}

// recomputeStaticRoutes re-runs the oracle, uncollapsed, over the
// internet nw belongs to: on a serial network, nw alone.
func (nw *Network) recomputeStaticRoutes() { installStaticRoutes(nw.in.regions, false) }

// InstallStaticRoutesAcross runs the static oracle globally over a set
// of region networks joined by AddCrossTrunk boundary links: one
// all-pairs computation over the union graph, crossing shard boundaries
// exactly where a boundary net holds a station in each region. Default-
// route collapse is always on here — a 2000-gateway internet's stub tier
// would otherwise install tens of millions of routes — so nodes with a
// single uplink get one default route and only the transit tier carries
// full tables.
//
// Call it after the sharded topology is final: unlike the per-network
// oracle it does not re-run on later topology changes, and a region's
// own InstallStaticRoutes afterwards would recompute every region's
// tables without the collapse.
func InstallStaticRoutesAcross(regions []*Network) { installStaticRoutes(regions, true) }

// installStaticRoutes is the one body behind both oracle entries: drop
// every topology-derived static route the regions' nodes hold, then
// re-run the all-pairs computation over the regions' union. Static
// routes whose prefix is not one of the topology's networks (operator-
// set defaults via SetDefaultRoute) are left alone; a collapsed default
// an earlier run installed is retracted via aggDefault, which remembers
// which nodes of the internet hold one.
func installStaticRoutes(regions []*Network, collapse bool) {
	agg := regions[0].in.aggDefault
	// Merge: nodes in region order, nets by prefix. A boundary net is a
	// net in both its regions; its stations, one in each, are the edge
	// the BFS crosses regions on, and come in attach order as on any net,
	// so the BFS breaks equal-cost ties as it does on the serial build.
	var nodes []*stack.Node
	merged := make(map[ipv4.Prefix]bool)
	var nets []*netInfo
	for _, nw := range regions {
		for _, name := range nw.order {
			nodes = append(nodes, nw.nodes[name])
		}
		for _, name := range nw.netOrder {
			ni := nw.nets[name]
			if !merged[ni.prefix] {
				merged[ni.prefix] = true
				nets = append(nets, ni)
			}
		}
	}

	for _, n := range nodes {
		n.Table.RemoveIf(func(r stack.Route) bool {
			if r.Source != stack.SourceStatic {
				return false
			}
			return merged[r.Prefix] || (r.Prefix.Bits == 0 && agg[n])
		})
		delete(agg, n)
	}

	computeStaticRoutes(nodes, nets, collapse, func(n *stack.Node) { agg[n] = true })
}

// computeStaticRoutes is the static oracle's core: a multi-source
// reverse BFS per destination net over the station graph, installing a
// static route (metric = gateway hops) on every node that can reach the
// net. nets may arrive in any order; they are processed in sorted-prefix
// order so each node's routes install deterministically.
//
// The graph is flattened once into integer-indexed arrays — a CSR
// adjacency, epoch-stamped visit marks — so the per-net BFS touches no
// maps and allocates nothing: at 2000 gateways a pointer-keyed scratch
// map spends the whole recompute hashing. Edge order mirrors the
// original nested iteration exactly (interfaces in attach order,
// stations in attach order), so the computed routes, and the order they
// install in, match the historical per-net walk.
//
// With aggregate set, a node whose next hop is uniform across every
// reachable net collapses to a single 0.0.0.0/0 route; noteAgg records
// each node that received one so a recompute can retract it. A node
// holding an operator default (SetDefaultRoute) to the same next hop is
// left as-is; to a different next hop, it keeps its full table.
func computeStaticRoutes(nodes []*stack.Node, nets []*netInfo, aggregate bool, noteAgg func(*stack.Node)) {
	slices.SortFunc(nets, func(a, b *netInfo) int { return a.prefix.Compare(b.prefix) })

	idxOf := make(map[*stack.Node]int32, len(nodes))
	for i, n := range nodes {
		idxOf[n] = int32(i)
	}
	netIdx := make(map[ipv4.Prefix]int32, len(nets))
	for i := range nets {
		netIdx[nets[i].prefix] = int32(i)
	}
	type edge struct {
		to, net int32
		ifIdx   int32     // incoming interface at the reached node
		via     ipv4.Addr // next-hop address (the relaying node's)
	}
	estart := make([]int32, len(nodes)+1)
	var edges []edge
	for i, b := range nodes {
		estart[i] = int32(len(edges))
		for _, bi := range b.Interfaces() {
			bn, ok := netIdx[bi.Prefix]
			if !ok {
				continue
			}
			for _, st := range nets[bn].stations {
				if st.node == b {
					continue
				}
				edges = append(edges, edge{
					to: idxOf[st.node], net: bn,
					ifIdx: int32(st.ifc.Index), via: bi.Addr,
				})
			}
		}
	}
	estart[len(nodes)] = int32(len(edges))

	type arrival struct {
		via     ipv4.Addr
		ifIndex int32
		dist    int32
	}
	arr := make([]arrival, len(nodes))
	mark := make([]uint32, len(nodes)) // visited in epoch e iff mark==e
	queue := make([]int32, 0, len(nodes))
	var epoch uint32

	// bfs runs the multi-source reverse BFS for destination net dn,
	// leaving the reached set (sources first, distance order) in queue.
	bfs := func(dn int32) {
		epoch++
		queue = queue[:0]
		// Multi-source start: every station of the destination net is at
		// distance 0 (it holds the direct route already).
		for _, st := range nets[dn].stations {
			i := idxOf[st.node]
			if mark[i] == epoch {
				continue
			}
			mark[i] = epoch
			arr[i] = arrival{}
			queue = append(queue, i)
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
				if e.net == dn || mark[e.to] == epoch {
					continue
				}
				mark[e.to] = epoch
				arr[e.to] = arrival{via: e.via, ifIndex: e.ifIdx, dist: d + 1}
				queue = append(queue, e.to)
			}
		}
	}

	// With aggregation on, a first sweep finds the nodes whose next hop
	// is uniform across every reachable net: those collapse to one
	// default route.
	var collapse, covered []bool
	var uVia []ipv4.Addr
	var uIf, cnt []int32 // cnt: routes each node is due, were none collapsed
	if aggregate {
		cnt = make([]int32, len(nodes))
		uniform := make([]bool, len(nodes))
		uVia = make([]ipv4.Addr, len(nodes))
		uIf = make([]int32, len(nodes))
		for dn := range nets {
			bfs(int32(dn))
			for _, i := range queue {
				if arr[i].dist == 0 {
					continue
				}
				if cnt[i] == 0 {
					uniform[i], uVia[i], uIf[i] = true, arr[i].via, arr[i].ifIndex
				} else if uniform[i] && (uVia[i] != arr[i].via || uIf[i] != arr[i].ifIndex) {
					uniform[i] = false
				}
				cnt[i]++
			}
		}
		collapse = make([]bool, len(nodes))
		covered = make([]bool, len(nodes))
		for i, n := range nodes {
			if cnt[i] == 0 || !uniform[i] {
				continue
			}
			var op *stack.Route
			for _, r := range n.Table.Routes() {
				if r.Prefix.Bits == 0 && r.Source == stack.SourceStatic {
					r := r
					op = &r
					break
				}
			}
			switch {
			case op == nil:
				collapse[i] = true
			case op.Via == uVia[i] && op.IfIndex == int(uIf[i]):
				collapse[i], covered[i] = true, true // operator default already points there
			}
		}
	}

	// Install straight into each table, in destination order. Where the
	// first sweep counted a node's routes the table is sized once up
	// front — a transit gateway on a 2000-gateway internet takes
	// thousands.
	for i, n := range nodes {
		if cnt != nil && !collapse[i] {
			n.Table.Grow(int(cnt[i]))
		}
	}
	for dn := range nets {
		bfs(int32(dn))
		p := nets[dn].prefix
		for _, i := range queue {
			if arr[i].dist == 0 {
				continue // attached directly; the direct route wins anyway
			}
			if collapse != nil && collapse[i] {
				continue // replaced by the node's single default route
			}
			nodes[i].Table.Add(stack.Route{
				Prefix:  p,
				Via:     arr[i].via,
				IfIndex: int(arr[i].ifIndex),
				Metric:  int(arr[i].dist),
				Source:  stack.SourceStatic,
			})
		}
	}

	for i, n := range nodes {
		if collapse == nil || !collapse[i] || covered[i] {
			continue
		}
		n.Table.Add(stack.Route{
			Prefix:  ipv4.Prefix{},
			Via:     uVia[i],
			IfIndex: int(uIf[i]),
			Metric:  1,
			Source:  stack.SourceStatic,
		})
		noteAgg(n)
	}
}
