// Package core assembles darpanet's pieces into runnable internetworks:
// it is the public facade a user of the library builds topologies with.
//
// A Network owns a simulation kernel, the media (LANs, serial trunks,
// radio nets), and the nodes (hosts and gateways) attached to them. It
// automates the bookkeeping the lower layers leave explicit — address
// assignment, neighbor tables, static-route computation — and provides
// the fault-injection switches (crash a gateway, cut a net) that the
// paper's survivability goal is tested against.
package core

import (
	"fmt"
	"sort"

	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
)

// NetKind selects the medium technology of a network.
type NetKind int

// The supported media, mirroring the paper's list of network varieties the
// architecture had to span.
const (
	LAN   NetKind = iota // shared bus, Ethernet-like
	P2P                  // point-to-point trunk, ARPANET-like
	Radio                // lossy broadcast net, packet-radio-like
	Cross                // cross-shard boundary trunk; built by ConnectShards, not AddNet
)

// netInfo tracks one network and the stations on it.
type netInfo struct {
	name     string
	kind     NetKind
	medium   phys.Medium
	prefix   ipv4.Prefix
	nextHost int
	stations []station
}

type station struct {
	node *stack.Node
	ifc  *stack.Interface
}

// Network is a simulated internetwork under construction or in operation.
type Network struct {
	kernel   *sim.Kernel
	nodes    map[string]*stack.Node
	udps     map[string]*udp.Transport
	tcps     map[string]*tcp.Transport
	rips     map[string]*rip.Router
	nets     map[string]*netInfo
	byPrefix map[ipv4.Prefix]*netInfo
	order    []string // node insertion order, for deterministic iteration
	netOrder []string // net insertion order, for deterministic iteration

	// staticOracle records that InstallStaticRoutes ran, so later
	// topology changes (AttachNodeToNet, new nodes) recompute the
	// oracle instead of leaving the newcomers silently unrouted.
	staticOracle bool

	// aggregate turns on default-route collapse in the static oracle:
	// a node whose computed routes all share one next hop gets a single
	// 0.0.0.0/0 instead of a route per net. aggDefault remembers which
	// nodes hold such a collapsed default so a recompute can retract it.
	aggregate  bool
	aggDefault map[*stack.Node]bool
}

// New creates an empty network driven by a fresh kernel seeded with seed.
func New(seed int64) *Network {
	return &Network{
		kernel:   sim.NewKernel(seed),
		nodes:    make(map[string]*stack.Node),
		udps:     make(map[string]*udp.Transport),
		tcps:     make(map[string]*tcp.Transport),
		rips:     make(map[string]*rip.Router),
		nets:     make(map[string]*netInfo),
		byPrefix: make(map[ipv4.Prefix]*netInfo),

		aggDefault: make(map[*stack.Node]bool),
	}
}

// Kernel returns the simulation kernel.
func (nw *Network) Kernel() *sim.Kernel { return nw.kernel }

// RunFor advances the simulation d of simulated time.
func (nw *Network) RunFor(d sim.Duration) { nw.kernel.RunFor(d) }

// Now returns the current simulated time.
func (nw *Network) Now() sim.Time { return nw.kernel.Now() }

// AddNet creates a network named name with the given address prefix,
// medium kind and transmission characteristics.
func (nw *Network) AddNet(name, prefix string, kind NetKind, cfg phys.Config) {
	if _, dup := nw.nets[name]; dup {
		panic(fmt.Sprintf("core: duplicate net %q", name))
	}
	var m phys.Medium
	switch kind {
	case LAN:
		m = phys.NewBus(nw.kernel, name, cfg)
	case P2P:
		m = phys.NewP2P(nw.kernel, name, cfg)
	case Radio:
		m = phys.NewRadio(nw.kernel, name, cfg)
	case Cross:
		panic("core: cross-shard nets are built with ConnectShards, not AddNet")
	default:
		panic("core: unknown net kind")
	}
	p := ipv4.MustParsePrefix(prefix)
	if _, dup := nw.byPrefix[p]; dup {
		panic(fmt.Sprintf("core: duplicate prefix %s", p))
	}
	ni := &netInfo{
		name:     name,
		kind:     kind,
		medium:   m,
		prefix:   p,
		nextHost: 1,
	}
	nw.nets[name] = ni
	nw.byPrefix[p] = ni
	nw.netOrder = append(nw.netOrder, name)
}

// Medium returns the medium implementing the named net, for direct fault
// injection or qdisc installation.
func (nw *Network) Medium(net string) phys.Medium { return nw.mustNet(net).medium }

// Prefix returns the address prefix of the named net.
func (nw *Network) Prefix(net string) ipv4.Prefix { return nw.mustNet(net).prefix }

func (nw *Network) mustNet(name string) *netInfo {
	n, ok := nw.nets[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown net %q", name))
	}
	return n
}

func (nw *Network) mustNode(name string) *stack.Node {
	n, ok := nw.nodes[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown node %q", name))
	}
	return n
}

// AddHost creates a non-forwarding node attached to the given nets.
func (nw *Network) AddHost(name string, nets ...string) *stack.Node {
	return nw.addNode(name, false, nets)
}

// AddGateway creates a forwarding node attached to the given nets.
func (nw *Network) AddGateway(name string, nets ...string) *stack.Node {
	return nw.addNode(name, true, nets)
}

func (nw *Network) addNode(name string, forwarding bool, nets []string) *stack.Node {
	if _, dup := nw.nodes[name]; dup {
		panic(fmt.Sprintf("core: duplicate node %q", name))
	}
	n := stack.NewNode(nw.kernel, name)
	n.Forwarding = forwarding
	nw.nodes[name] = n
	nw.order = append(nw.order, name)
	for _, netName := range nets {
		nw.attach(n, netName)
	}
	if nw.staticOracle {
		nw.recomputeStaticRoutes()
	}
	return n
}

// attach joins the node to a net at the next free host address and wires
// neighbor tables both ways with every existing station.
func (nw *Network) attach(n *stack.Node, netName string) *stack.Interface {
	ni := nw.mustNet(netName)
	addr := ni.prefix.Host(ni.nextHost)
	ni.nextHost++
	ifc := n.AttachInterface(ni.medium, addr, ni.prefix)
	for _, st := range ni.stations {
		st.ifc.AddNeighbor(ifc.Addr, ifc.NIC.Addr())
		ifc.AddNeighbor(st.ifc.Addr, st.ifc.NIC.Addr())
	}
	ni.stations = append(ni.stations, station{node: n, ifc: ifc})
	return ifc
}

// AttachNodeToNet joins an existing node to an additional network,
// assigning the next free host address there. If the static-route oracle
// has run, it is recomputed so the new attachment is routable — the old
// behavior silently left the newcomer (and routes toward it) stale.
func (nw *Network) AttachNodeToNet(node, net string) *stack.Interface {
	ifc := nw.attach(nw.mustNode(node), net)
	if nw.staticOracle {
		nw.recomputeStaticRoutes()
	}
	return ifc
}

// ConnectShards joins a node of region network na to a node of region
// network nb with a cross-shard boundary trunk: the only coupling two
// region kernels of a sharded simulation share. The link appears as a
// net named name (prefix prefix) in *both* networks — each side sees
// its own half with its own station; frames cross at the shard group's
// epoch barrier (phys.Boundary). cfg.Delay is mandatory: it is the
// lookahead the link contributes to the group. The halves are returned
// so the builder can wire the barrier exchange (Drain in fixed order).
func ConnectShards(na, nb *Network, nodeA, nodeB, name, prefix string, cfg phys.Config) (*phys.Boundary, *phys.Boundary) {
	if na == nb {
		panic("core: ConnectShards needs two distinct region networks (use AddNet for an intra-region trunk)")
	}
	p := ipv4.MustParsePrefix(prefix)
	ba, bb := phys.NewBoundaryPair(na.kernel, nb.kernel, name, cfg)
	reg := func(nw *Network, m phys.Medium, firstHost int) {
		if _, dup := nw.nets[name]; dup {
			panic(fmt.Sprintf("core: duplicate net %q", name))
		}
		if _, dup := nw.byPrefix[p]; dup {
			panic(fmt.Sprintf("core: duplicate prefix %s", p))
		}
		ni := &netInfo{name: name, kind: Cross, medium: m, prefix: p, nextHost: firstHost}
		nw.nets[name] = ni
		nw.byPrefix[p] = ni
		nw.netOrder = append(nw.netOrder, name)
	}
	reg(na, ba, 1) // half a's station is prefix.Host(1), link address 1
	reg(nb, bb, 2) // half b's is Host(2), link address 2 — as on a P2P trunk
	ifa := na.attach(na.mustNode(nodeA), name)
	ifb := nb.attach(nb.mustNode(nodeB), name)
	// attach never saw the peer station (it lives in the other kernel):
	// cross-wire the neighbor entries by hand.
	ifa.AddNeighbor(ifb.Addr, bb.NIC().Addr())
	ifb.AddNeighbor(ifa.Addr, ba.NIC().Addr())
	if na.staticOracle {
		na.recomputeStaticRoutes()
	}
	if nb.staticOracle {
		nb.recomputeStaticRoutes()
	}
	return ba, bb
}

// Node returns the named node.
func (nw *Network) Node(name string) *stack.Node { return nw.mustNode(name) }

// Nodes returns all node names in insertion order.
func (nw *Network) Nodes() []string {
	out := make([]string, len(nw.order))
	copy(out, nw.order)
	return out
}

// Addr returns the primary address of the named node.
func (nw *Network) Addr(name string) ipv4.Addr { return nw.mustNode(name).Addr() }

// UDP returns (creating on first use) the node's UDP transport.
func (nw *Network) UDP(name string) *udp.Transport {
	if t, ok := nw.udps[name]; ok {
		return t
	}
	t := udp.New(nw.mustNode(name))
	nw.udps[name] = t
	return t
}

// TCP returns (creating on first use) the node's TCP transport.
func (nw *Network) TCP(name string) *tcp.Transport {
	if t, ok := nw.tcps[name]; ok {
		return t
	}
	t := tcp.New(nw.mustNode(name))
	nw.tcps[name] = t
	return t
}

// SetDefaultRoute installs a static default route on host via gateway gw,
// which must share a network with the host.
func (nw *Network) SetDefaultRoute(host, gw string) {
	h := nw.mustNode(host)
	g := nw.mustNode(gw)
	for _, hi := range h.Interfaces() {
		for _, gi := range g.Interfaces() {
			if hi.Prefix == gi.Prefix {
				h.Table.Add(stack.Route{
					Prefix:  ipv4.MustParsePrefix("0.0.0.0/0"),
					Via:     gi.Addr,
					IfIndex: hi.Index,
					Source:  stack.SourceStatic,
				})
				return
			}
		}
	}
	panic(fmt.Sprintf("core: %s and %s share no network", host, gw))
}

// EnableRIP starts the distance-vector routing protocol on the named
// nodes (all nodes when none are named).
func (nw *Network) EnableRIP(cfg rip.Config, names ...string) {
	if len(names) == 0 {
		names = nw.order
	}
	for _, name := range names {
		if _, dup := nw.rips[name]; dup {
			continue
		}
		r, err := rip.New(nw.mustNode(name), nw.UDP(name), cfg)
		if err != nil {
			panic(fmt.Sprintf("core: rip on %s: %v", name, err))
		}
		nw.rips[name] = r
		r.Start()
	}
}

// RIP returns the node's routing process, or nil if RIP is not enabled
// there.
func (nw *Network) RIP(name string) *rip.Router { return nw.rips[name] }

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
// routed like everyone else.
func (nw *Network) InstallStaticRoutes() {
	nw.staticOracle = true
	nw.recomputeStaticRoutes()
}

// SetRouteAggregation turns default-route collapse on or off for the
// static oracle: when on, a node whose computed next hop is the same for
// every reachable net — a host behind one gateway, a stub gateway behind
// one trunk — gets a single 0.0.0.0/0 route instead of one route per
// net. On a generated 2000-gateway internet this shrinks the installed
// route count (and recompute memory) by orders of magnitude.
//
// It is opt-in because collapse is visible: a collapsed node forwards
// datagrams for *unknown* destinations toward its uplink instead of
// reporting no-route locally. Experiments that count NoRoute drops or
// golden-trace the small topologies keep the exact per-net tables.
func (nw *Network) SetRouteAggregation(on bool) {
	if nw.aggregate == on {
		return
	}
	nw.aggregate = on
	if nw.staticOracle {
		nw.recomputeStaticRoutes()
	}
}

// recomputeStaticRoutes drops every previously installed topology-derived
// static route and re-runs the all-pairs computation. Static routes whose
// prefix is not one of the topology's networks (operator-set defaults via
// SetDefaultRoute) are left alone; collapsed defaults a previous
// aggregated recompute installed are retracted via aggDefault.
//
// The graph is flattened once per recompute into integer-indexed arrays
// (a CSR adjacency over node indices, epoch-stamped visit marks), so the
// per-net BFS touches no maps and allocates nothing: at 2000 gateways
// the old pointer-keyed scratch map spent the whole recompute hashing.
// Edge order mirrors the old nested iteration exactly — interfaces in
// attach order, stations in attach order — so the computed routes, and
// the order they install in, are unchanged.
func (nw *Network) recomputeStaticRoutes() {
	for _, name := range nw.order {
		n := nw.nodes[name]
		n.Table.RemoveIf(func(r stack.Route) bool {
			if r.Source != stack.SourceStatic {
				return false
			}
			return nw.byPrefix[r.Prefix] != nil || (r.Prefix.Bits == 0 && nw.aggDefault[n])
		})
		delete(nw.aggDefault, n)
	}

	nodes := make([]*stack.Node, len(nw.order))
	for i, name := range nw.order {
		nodes[i] = nw.nodes[name]
	}
	nets := make([]oracleNet, 0, len(nw.netOrder))
	for _, name := range nw.netOrder {
		ni := nw.nets[name]
		nets = append(nets, oracleNet{prefix: ni.prefix, stations: ni.stations})
	}
	computeStaticRoutes(nodes, nets, nw.aggregate, func(n *stack.Node) { nw.aggDefault[n] = true })
}

// InstallStaticRoutesAcross runs the static oracle globally over a set
// of region networks joined by ConnectShards boundary links: one
// all-pairs computation over the union graph, crossing shard boundaries
// exactly where a boundary net holds a station in each region. Route
// aggregation is always on here — a 2000-gateway internet's stub tier
// would otherwise install tens of millions of routes — so nodes with a
// single uplink get one default route and only the transit tier carries
// full tables.
//
// Call it after the sharded topology is final: unlike the per-network
// oracle it does not re-run on later topology changes, and a region's
// own InstallStaticRoutes afterwards would tear out the cross-region
// state it cannot rebuild.
func InstallStaticRoutesAcross(regions []*Network) {
	all := make(map[ipv4.Prefix]bool)
	for _, nw := range regions {
		for _, ni := range nw.nets {
			all[ni.prefix] = true
		}
	}
	for _, nw := range regions {
		for _, name := range nw.order {
			n := nw.nodes[name]
			n.Table.RemoveIf(func(r stack.Route) bool {
				if r.Source != stack.SourceStatic {
					return false
				}
				return all[r.Prefix] || (r.Prefix.Bits == 0 && nw.aggDefault[n])
			})
			delete(nw.aggDefault, n)
		}
	}

	// Merge: nodes in region order, nets unified by prefix — a boundary
	// net appears in two regions and contributes one station from each,
	// which is precisely the edge the BFS crosses regions on.
	var nodes []*stack.Node
	owner := make(map[*stack.Node]*Network)
	merged := make(map[ipv4.Prefix]int)
	var nets []oracleNet
	for _, nw := range regions {
		for _, name := range nw.order {
			n := nw.nodes[name]
			nodes = append(nodes, n)
			owner[n] = nw
		}
		for _, name := range nw.netOrder {
			ni := nw.nets[name]
			j, ok := merged[ni.prefix]
			if !ok {
				j = len(nets)
				merged[ni.prefix] = j
				nets = append(nets, oracleNet{prefix: ni.prefix})
			}
			nets[j].stations = append(nets[j].stations, ni.stations...)
		}
	}
	computeStaticRoutes(nodes, nets, true, func(n *stack.Node) { owner[n].aggDefault[n] = true })
}

// oracleNet is one destination network as the static oracle sees it.
type oracleNet struct {
	prefix   ipv4.Prefix
	stations []station
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
func computeStaticRoutes(nodes []*stack.Node, nets []oracleNet, aggregate bool, noteAgg func(*stack.Node)) {
	sort.Slice(nets, func(i, j int) bool {
		pi, pj := nets[i].prefix, nets[j].prefix
		if pi.Addr != pj.Addr {
			return pi.Addr < pj.Addr
		}
		return pi.Bits < pj.Bits
	})

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

// directPrefix reports whether node attaches to prefix directly.
func directPrefix(n *stack.Node, p ipv4.Prefix) (*stack.Interface, bool) {
	for _, ifc := range n.Interfaces() {
		if ifc.Prefix == p {
			return ifc, true
		}
	}
	return nil, false
}

// netFor finds the netInfo with the given prefix (nil when unknown).
func (nw *Network) netFor(p ipv4.Prefix) *netInfo { return nw.byPrefix[p] }

// CrashNode models abrupt node failure — the paper's gateway loss. The
// routing process loses its RAM first (so the dying node does not poison
// the survivors on its way down), then the IP layer tears down: every
// interface goes dark, queued frames drop with their pooled buffers
// released, partial reassemblies flush. The node holds no conversation
// state (fate-sharing); the question survivability asks is whether
// everyone else copes.
func (nw *Network) CrashNode(name string) {
	if r := nw.rips[name]; r != nil {
		r.Crash()
	}
	nw.mustNode(name).Crash()
}

// RestoreNode reboots a crashed node: interfaces come back up and, if the
// node ran RIP, the routing process restarts from scratch and
// re-converges from its neighbors.
func (nw *Network) RestoreNode(name string) {
	nw.mustNode(name).Restart()
	if r := nw.rips[name]; r != nil {
		r.Start()
	}
}

// SetNetDown cuts (or restores) an entire network medium.
func (nw *Network) SetNetDown(net string, down bool) {
	nw.mustNet(net).medium.SetDown(down)
}

// EnablePriorityQueueing installs a ToS-precedence strict-priority qdisc
// on every interface of the named node. Higher IP precedence is served
// first; within a band the discipline is FIFO with perBand capacity.
func (nw *Network) EnablePriorityQueueing(name string, perBand int) {
	n := nw.mustNode(name)
	n.PriorityQueueing = true
	for _, ifc := range n.Interfaces() {
		q := phys.NewPriority(8, perBand, classifyPrecedence)
		q.RegisterMetrics(metrics.For(nw.kernel), ifc.NIC.Name())
		ifc.NIC.SetQdisc(q)
	}
}

// classifyPrecedence maps a frame payload (an IP datagram) to its
// precedence band.
func classifyPrecedence(payload []byte) int {
	if len(payload) < 2 || payload[0]>>4 != 4 {
		return 0
	}
	return ipv4.Precedence(payload[1])
}

// AllPrefixes returns every network prefix in the topology, sorted.
func (nw *Network) AllPrefixes() []ipv4.Prefix {
	out := make([]ipv4.Prefix, 0, len(nw.nets))
	for _, ni := range nw.nets {
		out = append(out, ni.prefix)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Bits < out[j].Bits
	})
	return out
}

// RIPNodes returns the names of RIP-enabled nodes in insertion order.
func (nw *Network) RIPNodes() []string {
	out := make([]string, 0, len(nw.rips))
	for _, name := range nw.order {
		if nw.rips[name] != nil {
			out = append(out, name)
		}
	}
	return out
}

// ReachablePrefixes returns the network prefixes the named node can
// currently reach, honoring interface state and cut media — the central
// oracle fault-injection campaigns measure routing reconvergence
// against. A prefix counts as reachable when some path of up interfaces
// across forwarding nodes and carrying media leads to it.
func (nw *Network) ReachablePrefixes(name string) []ipv4.Prefix {
	src := nw.mustNode(name)
	seen := map[*stack.Node]bool{src: true}
	queue := []*stack.Node{src}
	prefixes := make(map[ipv4.Prefix]bool)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur != src && !cur.Forwarding {
			continue
		}
		for _, ifc := range cur.Interfaces() {
			if !ifc.NIC.Up() {
				continue
			}
			ni := nw.netFor(ifc.Prefix)
			if ni == nil || ni.medium.Down() {
				continue
			}
			prefixes[ifc.Prefix] = true
			for _, st := range ni.stations {
				if seen[st.node] || !st.ifc.NIC.Up() {
					continue
				}
				seen[st.node] = true
				queue = append(queue, st.node)
			}
		}
	}
	out := make([]ipv4.Prefix, 0, len(prefixes))
	for p := range prefixes {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Bits < out[j].Bits
	})
	return out
}

// RouteVerdict classifies the outcome of a hop-by-hop forwarding walk:
// the datagram reached its network, died at a hole in the tables, or
// never terminated within the hop budget.
type RouteVerdict int

const (
	// RouteDelivered: the walk reached an up interface on the
	// destination network over a carrying medium.
	RouteDelivered RouteVerdict = iota
	// RouteDead: no route, a down egress, a cut medium, or a dead next
	// hop ended the walk short of the destination.
	RouteDead
	// RouteLooped: the hop budget ran out — on a budget at or above the
	// network diameter that means the tables cycle (a transient
	// micro-loop during reconvergence, or count-to-infinity in flight).
	RouteLooped
)

var routeVerdictNames = [...]string{"delivered", "dead", "looped"}

// String returns the verdict's short name.
func (v RouteVerdict) String() string {
	if int(v) < len(routeVerdictNames) {
		return routeVerdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// DefaultHopLimit is the forwarding-walk hop budget when the caller
// does not supply one (CheckRoute with maxHops <= 0, and RouteWorks).
const DefaultHopLimit = 64

// CheckRoute follows routing tables hop by hop from the named node
// toward network p — exactly as the forwarding plane would, requiring an
// up egress interface, a carrying medium, and a live next hop at every
// step — and says how the walk ended. maxHops bounds the walk (<= 0
// means DefaultHopLimit); callers who know the topology diameter should
// pass a bound just above it, so RouteLooped really means a loop rather
// than a legitimate long path.
func (nw *Network) CheckRoute(name string, p ipv4.Prefix, maxHops int) RouteVerdict {
	if maxHops <= 0 {
		maxHops = DefaultHopLimit
	}
	cur := nw.mustNode(name)
	dst := p.Host(1)
	for hops := 0; hops < maxHops; hops++ {
		if ifc, ok := directPrefix(cur, p); ok && ifc.NIC.Up() {
			if ni := nw.netFor(p); ni != nil && !ni.medium.Down() {
				return RouteDelivered
			}
		}
		if cur.Name() != name && !cur.Forwarding {
			return RouteDead
		}
		rt, ok := cur.Table.Lookup(dst)
		if !ok || rt.Via.IsZero() {
			return RouteDead
		}
		out := cur.Interface(rt.IfIndex)
		if out == nil || !out.NIC.Up() {
			return RouteDead
		}
		ni := nw.netFor(out.Prefix)
		if ni == nil || ni.medium.Down() {
			return RouteDead
		}
		next := nw.stationAt(ni, rt.Via)
		if next == nil || next == cur {
			return RouteDead
		}
		cur = next
	}
	return RouteLooped
}

// RouteWorks reports whether a datagram sent from the named node toward
// network p would currently be delivered onto it. It is
// CheckRoute(name, p, DefaultHopLimit) == RouteDelivered; callers who
// need to tell a forwarding loop from a dead route use CheckRoute.
func (nw *Network) RouteWorks(name string, p ipv4.Prefix) bool {
	return nw.CheckRoute(name, p, 0) == RouteDelivered
}

// stationAt finds the node holding addr on the net, or nil when no such
// station exists or its interface there is down.
func (nw *Network) stationAt(ni *netInfo, addr ipv4.Addr) *stack.Node {
	for _, st := range ni.stations {
		if st.ifc.Addr == addr {
			if !st.ifc.NIC.Up() {
				return nil
			}
			return st.node
		}
	}
	return nil
}

// Census is a point-in-time reachability census of the whole topology:
// which nodes can still talk to which, after whatever faults are in
// effect. It is one BFS sweep over the live adjacency (the same
// traversal ReachablePrefixes makes per node, done once for everyone),
// so fault campaigns can take it at each failure event instead of
// recomputing per-router reachability at every convergence poll.
type Census struct {
	// Components counts the mutually-reachable groups among operating
	// nodes; anything above 1 is a partition.
	Components int
	// Down counts nodes with no operating attachment at all — crashed
	// (every NIC down) or stranded with every medium cut. They belong
	// to no component.
	Down int
	// Largest is the node count of the biggest component; Total is all
	// nodes, down included, so Largest/Total is the fraction of the
	// internet still holding together.
	Largest, Total int

	comp     map[string]int
	prefixes [][]ipv4.Prefix
}

// ComponentOf returns the component id of the named node, or -1 when
// the node was down at census time (or unknown).
func (c *Census) ComponentOf(name string) int {
	if id, ok := c.comp[name]; ok {
		return id
	}
	return -1
}

// Prefixes returns the sorted network prefixes reachable within the
// named node's component — what the node can reach, per the census. A
// down node reaches nothing (nil).
func (c *Census) Prefixes(name string) []ipv4.Prefix {
	id := c.ComponentOf(name)
	if id < 0 {
		return nil
	}
	return c.prefixes[id]
}

// LargestFrac is Largest/Total: 1.0 for a connected internet with no
// node down, shrinking as failures carve it up.
func (c *Census) LargestFrac() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Largest) / float64(c.Total)
}

// PartitionCensus sweeps the topology as it stands — honoring interface
// state, cut media and crashed nodes — and returns the component
// structure. Traversal matches ReachablePrefixes: a path must cross up
// interfaces on carrying media, relaying only through forwarding nodes,
// so for single-homed endpoints Prefixes(name) equals
// ReachablePrefixes(name). Components are numbered in node insertion
// order, making the census deterministic.
func (nw *Network) PartitionCensus() *Census {
	c := &Census{
		comp:  make(map[string]int, len(nw.order)),
		Total: len(nw.order),
	}
	queue := make([]*stack.Node, 0, len(nw.order))
	for _, seedName := range nw.order {
		if _, done := c.comp[seedName]; done {
			continue
		}
		src := nw.nodes[seedName]
		if !nw.operating(src) {
			c.Down++
			c.comp[seedName] = -1
			continue
		}
		id := c.Components
		c.Components++
		c.comp[seedName] = id
		size := 0
		prefixSet := make(map[ipv4.Prefix]bool)
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			size++
			if cur != src && !cur.Forwarding {
				continue
			}
			for _, ifc := range cur.Interfaces() {
				if !ifc.NIC.Up() {
					continue
				}
				ni := nw.netFor(ifc.Prefix)
				if ni == nil || ni.medium.Down() {
					continue
				}
				prefixSet[ifc.Prefix] = true
				for _, st := range ni.stations {
					if !st.ifc.NIC.Up() {
						continue
					}
					if _, seen := c.comp[st.node.Name()]; seen {
						continue
					}
					c.comp[st.node.Name()] = id
					queue = append(queue, st.node)
				}
			}
		}
		if size > c.Largest {
			c.Largest = size
		}
		ps := make([]ipv4.Prefix, 0, len(prefixSet))
		for p := range prefixSet {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Addr != ps[j].Addr {
				return ps[i].Addr < ps[j].Addr
			}
			return ps[i].Bits < ps[j].Bits
		})
		c.prefixes = append(c.prefixes, ps)
	}
	return c
}

// operating reports whether the node has at least one up interface on a
// carrying medium — the census's liveness test: a crashed node (every
// NIC down) and a node with every attached medium cut both fail it.
func (nw *Network) operating(n *stack.Node) bool {
	for _, ifc := range n.Interfaces() {
		if !ifc.NIC.Up() {
			continue
		}
		if ni := nw.netFor(ifc.Prefix); ni != nil && !ni.medium.Down() {
			return true
		}
	}
	return false
}

// Converged reports whether every RIP-enabled node knows a live route to
// every network in the topology.
func (nw *Network) Converged() bool {
	want := nw.AllPrefixes()
	for _, r := range nw.rips {
		if !r.Converged(want) {
			return false
		}
	}
	return len(nw.rips) > 0
}
