package core

import (
	"fmt"
	"slices"

	"darpanet/internal/ipv4"
	"darpanet/internal/stack"
)

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
			ni := nw.netFor(ifc.Prefix)
			if ni == nil || !carries(ifc) {
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
	slices.SortFunc(out, ipv4.Prefix.Compare)
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
// does not supply one (CheckRoute with maxHops <= 0).
const DefaultHopLimit = 64

// CheckRoute follows routing tables hop by hop from the named node
// toward network p and says how the walk ended: RouteHops' verdict.
func (nw *Network) CheckRoute(name string, p ipv4.Prefix, maxHops int) RouteVerdict {
	_, v := nw.RouteHops(name, p, maxHops)
	return v
}

// RouteHops follows routing tables hop by hop from the named node
// toward network p — exactly as the forwarding plane would, requiring an
// up egress interface, a carrying medium, and a live next hop at every
// step — and returns the number of hops taken (from a host, the gateways
// that relayed the datagram) and how the walk ended: at delivery, at the
// hole, or the whole budget. The origin may be a host; any other
// non-forwarding node ends the walk. A next hop across a cross trunk is
// followed into the peer region's network, so the walk audits a sharded
// internet from any of its regions. maxHops bounds the walk (<= 0 means
// DefaultHopLimit); callers who know the topology diameter should pass a
// bound just above it, so RouteLooped really means a loop rather than a
// legitimate long path.
func (nw *Network) RouteHops(name string, p ipv4.Prefix, maxHops int) (int, RouteVerdict) {
	if maxHops <= 0 {
		maxHops = DefaultHopLimit
	}
	origin := nw.mustNode(name)
	cur, at := origin, nw // the node the datagram is at, and its network
	dst := p.Host(1)
	for hops := 0; hops < maxHops; hops++ {
		if ifc, ok := directPrefix(cur, p); ok && carries(ifc) {
			return hops, RouteDelivered
		}
		if cur != origin && !cur.Forwarding {
			return hops, RouteDead
		}
		rt, ok := cur.Table.Lookup(dst)
		if !ok || rt.Via.IsZero() {
			return hops, RouteDead
		}
		out := cur.Interface(rt.IfIndex)
		if out == nil || !carries(out) {
			return hops, RouteDead
		}
		ni := at.netFor(out.Prefix)
		if ni == nil {
			return hops, RouteDead
		}
		next := ni.stationAt(rt.Via)
		if next == nil && ni.peer != nil {
			ni = ni.peer
			next = ni.stationAt(rt.Via)
		}
		if next == nil || next == cur {
			return hops, RouteDead
		}
		cur, at = next, ni.nw
	}
	return maxHops, RouteLooped
}

// carries reports whether the interface is up on a medium that is not
// cut. On a cross trunk the medium is this region's half, and a frame is
// lost while either half is down: RouteHops asks the egress interface
// and, through stationAt, the next hop's.
func carries(ifc *stack.Interface) bool {
	return ifc.NIC.Up() && !ifc.NIC.Medium().Down()
}

// stationAt finds the node holding addr on the net, or nil when no such
// station exists or its interface there does not carry.
func (ni *netInfo) stationAt(addr ipv4.Addr) *stack.Node {
	for _, st := range ni.stations {
		if st.ifc.Addr == addr && carries(st.ifc) {
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
				ni := nw.netFor(ifc.Prefix)
				if ni == nil || !carries(ifc) {
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
		slices.SortFunc(ps, ipv4.Prefix.Compare)
		c.prefixes = append(c.prefixes, ps)
	}
	return c
}

// operating reports whether the node has at least one up interface on a
// carrying medium — the census's liveness test: a crashed node (every
// NIC down) and a node with every attached medium cut both fail it.
func (nw *Network) operating(n *stack.Node) bool {
	for _, ifc := range n.Interfaces() {
		if nw.netFor(ifc.Prefix) != nil && carries(ifc) {
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
