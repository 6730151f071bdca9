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
	"cmp"
	"fmt"
	"math"
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

// internet is what the regions of one simulated internet share: the
// shard group that advances their kernels and the cross-trunk halves its
// exchange drains, in creation order. A serial network is one region.
type internet struct {
	regions    []*Network
	group      *sim.ShardGroup
	workers    int
	boundaries []*phys.Boundary

	// aggRoutes remembers the prefixes of the aggregates the
	// cross-region oracle installed on each node instead of a route per
	// net — a collapsed default, or the blocks covering its runs of
	// same-next-hop nets — so a recompute can retract them.
	aggRoutes map[*stack.Node][]ipv4.Prefix
}

// regroup builds the shard group over every region's kernel. Its
// lookahead is the shortest cross-trunk delay; with no cross trunk there
// is no bound, and a run is one epoch cut only by observers.
func (in *internet) regroup() {
	look := sim.Duration(math.MaxInt64)
	kernels := make([]*sim.Kernel, len(in.regions))
	for i, r := range in.regions {
		kernels[i] = r.kernel
	}
	for _, b := range in.boundaries {
		look = min(look, b.Delay())
	}
	in.group = sim.NewShardGroup(kernels, look, in.workers)
	// Halves drain in trunk creation order, which fixes the exchange's
	// RNG draw sequence.
	in.group.SetExchange(func() {
		for _, b := range in.boundaries {
			b.Drain()
		}
	})
}

// Network is a simulated internetwork under construction or in
// operation: on a sharded build, one region of it.
type Network struct {
	kernel   *sim.Kernel
	in       *internet
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
}

// New creates an empty network driven by a fresh kernel seeded with seed.
func New(seed int64) *Network { return NewRegions(seed, 1, 1)[0] }

// NewRegions creates the n empty region networks of one internet, region
// r's kernel seeded seed + r·1 000 003, so region 0's is New(seed)'s.
// AddCrossTrunk joins them; their kernels advance in lock-step epochs on
// up to workers goroutines, which buy wall-clock time and never change a
// result.
func NewRegions(seed int64, n, workers int) []*Network {
	in := &internet{workers: workers, aggRoutes: make(map[*stack.Node][]ipv4.Prefix)}
	for r := range n {
		in.regions = append(in.regions, &Network{
			kernel:   sim.NewKernel(seed + int64(r)*1_000_003),
			in:       in,
			nodes:    make(map[string]*stack.Node),
			udps:     make(map[string]*udp.Transport),
			tcps:     make(map[string]*tcp.Transport),
			rips:     make(map[string]*rip.Router),
			nets:     make(map[string]*netInfo),
			byPrefix: make(map[ipv4.Prefix]*netInfo),
		})
	}
	in.regroup()
	return in.regions
}

// Kernel returns the simulation kernel.
func (nw *Network) Kernel() *sim.Kernel { return nw.kernel }

// Group returns the shard group every region of the internet runs on.
func (nw *Network) Group() *sim.ShardGroup { return nw.in.group }

// Kernels returns every region's kernel, in region order.
func (nw *Network) Kernels() []*sim.Kernel { return nw.in.group.Kernels() }

// Net returns the region network holding the named node, or nil when
// no region of the internet holds it.
func (nw *Network) Net(node string) *Network {
	for _, r := range nw.in.regions {
		if _, ok := r.nodes[node]; ok {
			return r
		}
	}
	return nil
}

// RunFor advances the whole internet d of simulated time.
func (nw *Network) RunFor(d sim.Duration) { nw.in.group.RunFor(d) }

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
// contributes to the group, which is rebuilt here — so join the regions
// before arming anything on it.
func AddCrossTrunk(na, nb *Network, name, prefix string, cfg phys.Config) {
	if na == nb || na.in != nb.in {
		panic("core: AddCrossTrunk needs two distinct regions of one internet (use AddNet for an intra-region trunk)")
	}
	p := ipv4.MustParsePrefix(prefix)
	ba, bb := phys.NewBoundaryPair(na.kernel, nb.kernel, name, cfg)
	w := &wire{media: []phys.Medium{ba, bb}}
	na.register(name, p, ba, w)
	nb.register(name, p, bb, w)
	na.in.boundaries = append(na.in.boundaries, ba, bb)
	na.in.regroup()
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
// injection or qdisc installation: on a cross trunk, this region's half.
func (nw *Network) Medium(net string) phys.Medium { return nw.mustNet(net).medium }

// Media returns every medium of the named net — its one medium, or both
// halves of a cross trunk — or nil when no region of the internet has it.
func (nw *Network) Media(net string) []phys.Medium {
	for _, r := range nw.in.regions {
		if ni, ok := r.nets[net]; ok {
			return ni.media
		}
	}
	return nil
}

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
func (nw *Network) Nodes() []string { return slices.Clone(nw.order) }

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

// RIP returns the node's routing process, in whichever region it lives,
// or nil if RIP is not enabled there.
func (nw *Network) RIP(name string) *rip.Router { return cmp.Or(nw.Net(name), nw).rips[name] }

// EnablePriorityQueueing installs a ToS-precedence strict-priority qdisc
// on every interface of the named node (stack.Node.InstallPriorityQueueing).
func (nw *Network) EnablePriorityQueueing(name string, perBand int) {
	nw.mustNode(name).InstallPriorityQueueing(perBand)
}

// AllPrefixes returns every network prefix in the internet, sorted.
func (nw *Network) AllPrefixes() []ipv4.Prefix {
	out := make([]ipv4.Prefix, 0, len(nw.nets))
	for _, r := range nw.in.regions {
		for _, ni := range r.nets {
			out = append(out, ni.prefix)
		}
	}
	slices.SortFunc(out, ipv4.Prefix.Compare)
	return slices.Compact(out) // a cross trunk is a net in both its regions
}

// RIPNodes returns the names of the internet's RIP-enabled nodes, region
// by region in insertion order.
func (nw *Network) RIPNodes() []string {
	var out []string
	for _, r := range nw.in.regions {
		for _, name := range r.order {
			if r.rips[name] != nil {
				out = append(out, name)
			}
		}
	}
	return out
}
