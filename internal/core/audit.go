package core

import (
	"cmp"
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

// RouteHops follows routing tables hop by hop from the named node, in
// whichever region it lives, toward network p — exactly as the
// forwarding plane would, requiring an up egress interface, a carrying
// medium, and a live next hop at every step — and returns the number of
// hops taken (from a host, the gateways that relayed the datagram) and
// how the walk ended: at delivery, at the hole, or the whole budget. The
// origin may be a host; any other non-forwarding node ends the walk. A
// next hop across a cross trunk is followed into its station's region,
// so the walk audits a sharded internet from any of its regions: call
// it between runs or from a barrier observer (sim.ShardGroup.At).
// maxHops bounds the walk (<= 0 means DefaultHopLimit); callers who know
// the topology diameter should pass a bound just above it, so
// RouteLooped really means a loop rather than a legitimate long path.
func (nw *Network) RouteHops(name string, p ipv4.Prefix, maxHops int) (int, RouteVerdict) {
	if maxHops <= 0 {
		maxHops = DefaultHopLimit
	}
	at := cmp.Or(nw.Net(name), nw)
	origin := at.mustNode(name)
	cur := origin // the node the datagram is at; at is its network
	dst := p.Host(1)
	for hops := 0; hops < maxHops; hops++ {
		if ifc, ok := directPrefix(cur, p); ok && at.netFor(p).carries(ifc) {
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
		if out == nil {
			return hops, RouteDead
		}
		ni := at.netFor(out.Prefix)
		next := ni.stationAt(rt.Via)
		if !ni.carries(out) || next == nil || next.node == cur {
			return hops, RouteDead
		}
		cur, at = next.node, next.nw
	}
	return maxHops, RouteLooped
}

// stationAt finds the station holding addr on the net, or nil when no
// such station exists or its interface there does not carry.
func (ni *netInfo) stationAt(addr ipv4.Addr) *station {
	for i := range ni.stations {
		if st := &ni.stations[i]; st.ifc.Addr == addr && ni.carries(st.ifc) {
			return st
		}
	}
	return nil
}

// Census is a point-in-time reachability census of the whole internet:
// which nodes can still talk to which, after whatever faults are in
// effect. It is one BFS sweep over the live adjacency, done once for
// everyone, so fault campaigns can take it at each failure event
// instead of recomputing per-router reachability at every convergence
// poll.
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

// PartitionCensus sweeps the internet as it stands — every region of
// it, honoring interface state, cut media and crashed nodes — and
// returns the component structure. A path must cross up interfaces on
// nets that carry, relaying only through forwarding nodes; a node with
// no interface that carries is down. Components are numbered in node
// insertion order, region by region, making the census deterministic.
// Like RouteHops, it reads every region's state: call it between runs
// or from a barrier observer (sim.ShardGroup.At).
func (nw *Network) PartitionCensus() *Census {
	c := &Census{}
	for _, r := range nw.in.regions {
		c.Total += len(r.order)
	}
	c.comp = make(map[string]int, c.Total)
	queue := make([]station, 0, c.Total)
	for _, r := range nw.in.regions {
		for _, seedName := range r.order {
			if _, done := c.comp[seedName]; done {
				continue
			}
			src := r.nodes[seedName]
			id := c.Components
			c.comp[seedName] = id
			prefixSet := make(map[ipv4.Prefix]bool)
			queue = append(queue[:0], station{nw: r, node: src})
			for i := 0; i < len(queue); i++ {
				cur := queue[i]
				if cur.node != src && !cur.node.Forwarding {
					continue
				}
				for _, ifc := range cur.node.Interfaces() {
					ni := cur.nw.netFor(ifc.Prefix)
					if !ni.carries(ifc) {
						continue
					}
					prefixSet[ifc.Prefix] = true
					for _, st := range ni.stations {
						if _, seen := c.comp[st.node.Name()]; seen || !st.ifc.NIC.Up() {
							continue
						}
						c.comp[st.node.Name()] = id
						queue = append(queue, st)
					}
				}
			}
			if len(prefixSet) == 0 {
				c.Down++
				c.comp[seedName] = -1
				continue
			}
			c.Components++
			c.Largest = max(c.Largest, len(queue))
			ps := make([]ipv4.Prefix, 0, len(prefixSet))
			for p := range prefixSet {
				ps = append(ps, p)
			}
			slices.SortFunc(ps, ipv4.Prefix.Compare)
			c.prefixes = append(c.prefixes, ps)
		}
	}
	return c
}

// Converged reports whether every RIP-enabled node of the internet knows
// a live route to every network in it.
func (nw *Network) Converged() bool {
	want, routers := nw.AllPrefixes(), nw.RIPNodes()
	for _, name := range routers {
		if !nw.RIP(name).Converged(want) {
			return false
		}
	}
	return len(routers) > 0
}
