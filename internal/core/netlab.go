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
	"slices"

	"darpanet/internal/ipv4"
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
)

// netInfo tracks one network and the stations on it.
type netInfo struct {
	name   string
	medium phys.Medium // on a cross trunk, this region's half
	prefix ipv4.Prefix
	*wire
}

// wire is the one record of a net that every region it spans reads: the
// two halves of a cross trunk share one, so they hand out one sequence
// of host numbers and a reader of either half sees both ends.
type wire struct {
	stations []station     // in attach order, which is address order
	media    []phys.Medium // the net's medium, or a cross trunk's two halves
}

// station is a node's attachment to a net, with the network (a region,
// on a sharded build) the node lives in.
type station struct {
	nw   *Network
	node *stack.Node
	ifc  *stack.Interface
}

// carries reports whether a frame can leave or reach ifc, a station's
// interface on the net: the interface is up and no medium of the net is
// cut — on a cross trunk neither half, since a frame is lost at either.
func (ni *netInfo) carries(ifc *stack.Interface) bool {
	if !ifc.NIC.Up() {
		return false
	}
	for _, m := range ni.media {
		if m.Down() {
			return false
		}
	}
	return true
}

// regions returns the networks joined to nw by cross trunks, nw among
// them: nw first, then each in the order a sweep of the ones before it
// over their nets' stations meets it. A serial network is its one region.
func (nw *Network) regions() []*Network {
	out := []*Network{nw}
	for i := 0; i < len(out); i++ {
		for _, name := range out[i].netOrder {
			for _, st := range out[i].nets[name].stations {
				if !slices.Contains(out, st.nw) {
					out = append(out, st.nw)
				}
			}
		}
	}
	return out
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

	// aggDefault remembers which nodes hold a collapsed default route —
	// the single 0.0.0.0/0 the cross-region oracle installs on a node
	// whose computed routes all share one next hop, instead of a route
	// per net — so a recompute can retract it.
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

// Kernels returns every kernel the internet runs on: here, the one.
func (nw *Network) Kernels() []*sim.Kernel { return []*sim.Kernel{nw.kernel} }

// Net returns the network holding the named node — nw itself. With
// Kernels it lets code written against a node-to-network handle (a
// sharded build answers with the node's region) take a serial Network
// unchanged.
func (nw *Network) Net(node string) *Network { return nw }

// RunFor advances the simulation d of simulated time.
func (nw *Network) RunFor(d sim.Duration) { nw.kernel.RunFor(d) }

// Now returns the current simulated time.
func (nw *Network) Now() sim.Time { return nw.kernel.Now() }

// AddNet creates a network named name with the given address prefix,
// medium kind and transmission characteristics.
func (nw *Network) AddNet(name, prefix string, kind NetKind, cfg phys.Config) {
	var m phys.Medium
	switch kind {
	case LAN:
		m = phys.NewBus(nw.kernel, name, cfg)
	case P2P:
		m = phys.NewP2P(nw.kernel, name, cfg)
	case Radio:
		m = phys.NewRadio(nw.kernel, name, cfg)
	default:
		panic("core: unknown net kind")
	}
	nw.register(name, ipv4.MustParsePrefix(prefix), m, &wire{media: []phys.Medium{m}})
}

// AddCrossTrunk creates the point-to-point trunk name (prefix prefix)
// between region networks na and nb as a cross-shard boundary: the only
// coupling two region kernels of a sharded simulation share. The trunk
// is a net of that name in *both* networks — each holds its own half
// (phys.Boundary) — and a node of either region joins it like any other
// net, through AddGateway or AttachNodeToNet on its own network: the
// first end to attach takes link address 1 and prefix.Host(1), the
// second 2, exactly as on a P2P net. Frames cross at the shard group's
// epoch barrier. cfg.Delay is mandatory: it is the lookahead the link
// contributes to the group. The halves are returned so the builder can
// wire the barrier exchange (Drain in fixed order).
func AddCrossTrunk(na, nb *Network, name, prefix string, cfg phys.Config) (*phys.Boundary, *phys.Boundary) {
	if na == nb {
		panic("core: AddCrossTrunk needs two distinct region networks (use AddNet for an intra-region trunk)")
	}
	p := ipv4.MustParsePrefix(prefix)
	ba, bb := phys.NewBoundaryPair(na.kernel, nb.kernel, name, cfg)
	w := &wire{media: []phys.Medium{ba, bb}}
	na.register(name, p, ba, w)
	nb.register(name, p, bb, w)
	return ba, bb
}

// register records a net under its name and prefix, both of which must
// be new to this network.
func (nw *Network) register(name string, p ipv4.Prefix, m phys.Medium, w *wire) {
	if _, dup := nw.nets[name]; dup {
		panic(fmt.Sprintf("core: duplicate net %q", name))
	}
	if _, dup := nw.byPrefix[p]; dup {
		panic(fmt.Sprintf("core: duplicate prefix %s", p))
	}
	ni := &netInfo{name: name, medium: m, prefix: p, wire: w}
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
	others := ni.stations
	host := len(others) + 1
	// The prefix's last address is its directed broadcast: a station's
	// host number must come before it.
	if !ni.prefix.Contains(ni.prefix.Host(host + 1)) {
		panic(fmt.Sprintf("core: net %q (%s) has no host address left for %s", netName, ni.prefix, n.Name()))
	}
	ifc := n.AttachInterface(ni.medium, ni.prefix.Host(host), ni.prefix)
	for _, st := range others {
		st.ifc.AddNeighbor(ifc.Addr, ifc.NIC.Addr())
		ifc.AddNeighbor(st.ifc.Addr, st.ifc.NIC.Addr())
	}
	ni.stations = append(ni.stations, station{nw: nw, node: n, ifc: ifc})
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

// EnablePriorityQueueing installs a ToS-precedence strict-priority qdisc
// on every interface of the named node (stack.Node.InstallPriorityQueueing).
func (nw *Network) EnablePriorityQueueing(name string, perBand int) {
	nw.mustNode(name).InstallPriorityQueueing(perBand)
}

// AllPrefixes returns every network prefix in the internet — every
// region joined to nw by cross trunks — sorted.
func (nw *Network) AllPrefixes() []ipv4.Prefix {
	out := make([]ipv4.Prefix, 0, len(nw.nets))
	for _, r := range nw.regions() {
		for _, ni := range r.nets {
			out = append(out, ni.prefix)
		}
	}
	slices.SortFunc(out, ipv4.Prefix.Compare)
	return slices.Compact(out) // a cross trunk is a net in both its regions
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
