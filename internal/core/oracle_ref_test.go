package core

import (
	"slices"

	"darpanet/internal/ipv4"
	"darpanet/internal/stack"
)

// The reference oracle: the two-sweep body computeStaticRoutes replaced,
// kept word for word (renamed, with its entry) so that
// FuzzStaticRoutesMatchReference can hold the one-sweep oracle to it
// table for table. Its first sweep over every net only learns which
// nodes have one next hop toward everything; the second installs.

// refInstallStaticRoutes is the one body behind both oracle entries: drop
// every topology-derived static route the regions' nodes hold, then
// re-run the all-pairs computation over the regions' union. Static
// routes whose prefix is not one of the topology's networks (operator-
// set defaults via SetDefaultRoute) are left alone; the aggregates an
// earlier run installed — collapsed defaults and blocks — are retracted
// via aggRoutes, which remembers them node by node.
func refInstallStaticRoutes(regions []*Network, aggregate bool) {
	agg := regions[0].in.aggRoutes
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
		held := agg[n]
		n.Table.RemoveIf(func(r stack.Route) bool {
			return r.Source == stack.SourceStatic && (merged[r.Prefix] || slices.Contains(held, r.Prefix))
		})
		delete(agg, n)
	}

	refComputeStaticRoutes(nodes, nets, aggregate, func(n *stack.Node, p ipv4.Prefix) { agg[n] = append(agg[n], p) })
}

// refComputeStaticRoutes is the static oracle's core: a multi-source
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
// reachable net collapses to a single 0.0.0.0/0 route. A node holding an
// operator default (SetDefaultRoute) to the same next hop is left as-is;
// to a different next hop, it does not collapse. A node that does not
// collapse gets blocks (hopRun) for its routes, as long as the nets are
// disjoint — every generated internet's /24s are. note records each
// default and block installed, so a recompute can retract it.
func refComputeStaticRoutes(nodes []*stack.Node, nets []*netInfo, aggregate bool, note func(*stack.Node, ipv4.Prefix)) {
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
	var uIf []int32
	if aggregate {
		reached := make([]bool, len(nodes))
		uniform := make([]bool, len(nodes))
		uVia = make([]ipv4.Addr, len(nodes))
		uIf = make([]int32, len(nodes))
		for dn := range nets {
			bfs(int32(dn))
			for _, i := range queue {
				if arr[i].dist == 0 {
					continue
				}
				if !reached[i] {
					reached[i], uniform[i], uVia[i], uIf[i] = true, true, arr[i].via, arr[i].ifIndex
				} else if uniform[i] && (uVia[i] != arr[i].via || uIf[i] != arr[i].ifIndex) {
					uniform[i] = false
				}
			}
		}
		collapse = make([]bool, len(nodes))
		covered = make([]bool, len(nodes))
		for i, n := range nodes {
			if !uniform[i] {
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

	// Install straight into each table, in destination order: a route per
	// net, or, on an aggregating node that did not collapse, its open run
	// extended by the net — and covered with blocks once the next net
	// does not continue it.
	var runs []hopRun
	if aggregate && disjoint(nets) {
		runs = make([]hopRun, len(nodes))
	}
	flush := func(i int32) {
		n := nodes[i]
		runs[i].cover(nets, func(r stack.Route) {
			n.Table.Add(r)
			note(n, r.Prefix)
		})
	}
	for dn := range nets {
		bfs(int32(dn))
		p := nets[dn].prefix
		for _, i := range queue {
			a := arr[i]
			switch {
			case a.dist == 0:
				// attached directly; the direct route wins anyway
			case collapse != nil && collapse[i]:
				// replaced by the node's single default route
			case runs != nil:
				if !runs[i].extend(int32(dn), a) {
					flush(i)
					runs[i] = hopRun{first: int32(dn), end: int32(dn) + 1, arrival: a}
				}
			default:
				nodes[i].Table.Add(stack.Route{
					Prefix:  p,
					Via:     a.via,
					IfIndex: int(a.ifIndex),
					Metric:  int(a.dist),
					Source:  stack.SourceStatic,
				})
			}
		}
	}
	for i := range runs {
		flush(int32(i))
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
		note(n, ipv4.Prefix{})
	}
}
