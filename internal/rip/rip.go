// Package rip implements a RIP-style distance-vector routing protocol.
//
// The paper's fourth goal — distributed management — and its first —
// survivability — meet here: gateways from different administrations
// compute routes by gossiping distance vectors, and when a gateway or
// network dies the survivors re-converge on new paths with no central
// coordination, which is what lets the stateless datagram layer actually
// deliver on "communication continues as long as some path exists".
//
// The protocol is classic Bellman–Ford with the RFC 1058 safeguards:
// periodic full updates, triggered partial updates, split horizon with
// poisoned reverse, route expiry, and a small infinity (16).
package rip

import (
	"encoding/binary"
	"fmt"
	"slices"

	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
	"darpanet/internal/udp"
)

// Port is the UDP port the protocol speaks on.
const Port = 520

// Infinity is the unreachable metric.
const Infinity = 16

// Config tunes the protocol timers. The defaults are scaled-down versions
// of RFC 1058's 30/180/120 seconds so simulations converge quickly; the
// ratios are preserved.
type Config struct {
	// UpdateInterval is the period between full routing broadcasts.
	UpdateInterval sim.Duration
	// RouteTimeout marks a route unreachable if not refreshed.
	RouteTimeout sim.Duration
	// GCTimeout removes an unreachable route after it has been
	// advertised as such.
	GCTimeout sim.Duration
	// TriggeredDelay bounds the random hold-down before a triggered
	// update, to coalesce bursts of changes.
	TriggeredDelay sim.Duration
	// Batched shares one periodic timer per (kernel, UpdateInterval)
	// across every router instead of one jittered timer per router, so
	// internets of hundreds of gateways (internal/topo) do not fill the
	// event heap with periodic entries. Updates lose their per-router
	// jitter: all batched routers broadcast in the same kernel tick.
	Batched bool
}

// DefaultConfig returns the default timer set (10s updates).
func DefaultConfig() Config {
	return Config{
		UpdateInterval: 10 * 1e9,
		RouteTimeout:   60 * 1e9,
		GCTimeout:      40 * 1e9,
		TriggeredDelay: 1 * 1e9,
	}
}

// FastConfig returns the timer set the experiments, netlab and the
// examples run: 2s updates, so a small internet converges, and
// reconverges after a failure, in a few simulated seconds.
func FastConfig() Config {
	return Config{
		UpdateInterval: 2 * 1e9,
		RouteTimeout:   7 * 1e9,
		GCTimeout:      4 * 1e9,
		TriggeredDelay: 200 * 1e6,
	}
}

// Stats counts protocol activity.
type Stats struct {
	UpdatesSent      uint64
	UpdatesReceived  uint64
	TriggeredUpdates uint64
	RouteChanges     uint64
	EntriesSent      uint64
}

// route is the protocol's view of one destination.
type route struct {
	prefix    ipv4.Prefix
	via       ipv4.Addr // zero: directly connected
	ifIndex   int
	metric    int
	lastHeard sim.Time
	garbage   bool // unreachable, awaiting GC
	gcAt      sim.Time
}

// Router runs the protocol on one node.
type Router struct {
	node *stack.Node
	udp  *udp.Transport
	sock *udp.Socket
	cfg  Config
	k    *sim.Kernel

	routes     map[ipv4.Prefix]*route
	stats      Stats
	started    bool
	inTicker   bool // member of the shared batch ticker (Batched mode)
	trigTimer  sim.Timer
	tick       sim.Timer
	periodicFn func() // prebound periodic, reused every interval
	trigFn     func() // prebound triggered-update callback
	ifFilter   func(*stack.Interface) bool
}

// SetInterfaceFilter restricts the protocol to interfaces for which fn
// returns true, for both sending and accepting updates. Border gateways
// use it to keep interior routing inside their administration while the
// exterior protocol (internal/egp) speaks on the inter-AS links.
func (r *Router) SetInterfaceFilter(fn func(*stack.Interface) bool) { r.ifFilter = fn }

func (r *Router) ifaceAllowed(ifc *stack.Interface) bool {
	return r.ifFilter == nil || r.ifFilter(ifc)
}

// New creates a router for node n using its UDP transport. Call Start to
// begin advertising.
func New(n *stack.Node, t *udp.Transport, cfg Config) (*Router, error) {
	if cfg.UpdateInterval <= 0 {
		cfg = DefaultConfig()
	}
	r := &Router{
		node:   n,
		udp:    t,
		cfg:    cfg,
		k:      n.Kernel(),
		routes: make(map[ipv4.Prefix]*route),
	}
	r.periodicFn = r.periodic
	r.trigFn = r.fireTriggered
	sock, err := t.Listen(Port, r.input)
	if err != nil {
		return nil, fmt.Errorf("rip: %w", err)
	}
	sock.TTL = 1 // never routed off-link
	r.sock = sock
	n.OnLinkChange(r.linkChanged)
	reg := metrics.For(r.k)
	reg.Counter(n.Name(), "rip", "updates_sent", &r.stats.UpdatesSent)
	reg.Counter(n.Name(), "rip", "updates_received", &r.stats.UpdatesReceived)
	reg.Counter(n.Name(), "rip", "triggered_updates", &r.stats.TriggeredUpdates)
	reg.Counter(n.Name(), "rip", "route_changes", &r.stats.RouteChanges)
	reg.Counter(n.Name(), "rip", "entries_sent", &r.stats.EntriesSent)
	reg.Gauge(n.Name(), "rip", "routes", func() uint64 { return uint64(r.RouteCount()) })
	return r, nil
}

// Stats returns a copy of the protocol counters.
func (r *Router) Stats() Stats { return r.stats }

// Running reports whether the periodic update cycle is active (between
// Start and Stop/Crash).
func (r *Router) Running() bool { return r.started }

// Start seeds the table with the node's direct networks and begins the
// periodic update cycle. The first update is jittered so gateways do not
// synchronize.
func (r *Router) Start() {
	if r.started {
		return
	}
	r.started = true
	for _, ifc := range r.node.Interfaces() {
		r.routes[ifc.Prefix] = &route{
			prefix:    ifc.Prefix,
			ifIndex:   ifc.Index,
			metric:    1,
			lastHeard: r.k.Now(),
		}
	}
	if r.cfg.Batched {
		if !r.inTicker {
			tickerFor(r.k, r.cfg.UpdateInterval).join(r)
		}
		return
	}
	jitter := sim.Duration(r.k.Rand().Int63n(int64(r.cfg.UpdateInterval)/2 + 1))
	r.tick = r.k.After(jitter, r.periodicFn)
}

// Stop cancels the periodic cycle (the socket stays bound).
func (r *Router) Stop() {
	r.started = false
	r.tick.Stop()
	r.trigTimer.Stop()
}

// Crash models the gateway losing its routing state outright: the cycle
// stops and every learned route vanishes, as RAM does. A later Start
// re-seeds from the direct networks and re-converges from scratch — the
// paper's fate-sharing argument applied to the gateway itself: no
// neighbor depended on this state surviving.
func (r *Router) Crash() {
	r.Stop()
	for p := range r.routes {
		r.node.Table.Remove(p, stack.SourceRIP)
		delete(r.routes, p)
	}
}

// linkChanged reacts to interface state transitions. On failure every
// route using the interface — direct or learned — is marked unreachable
// immediately and a triggered update poisons it to the neighbors, so
// reconvergence is bounded by propagation delay rather than RouteTimeout.
// On recovery the direct route revives; learned routes return with the
// neighbors' next updates.
func (r *Router) linkChanged(ifc *stack.Interface, up bool) {
	if !r.started {
		return
	}
	now := r.k.Now()
	if up {
		if rt, ok := r.routes[ifc.Prefix]; ok && rt.via.IsZero() && rt.metric >= Infinity {
			rt.metric = 1
			rt.garbage = false
			rt.lastHeard = now
			r.routeChanged(rt)
		}
		return
	}
	for _, rt := range r.routes {
		if rt.ifIndex != ifc.Index || rt.metric >= Infinity {
			continue
		}
		rt.metric = Infinity
		rt.garbage = true
		rt.gcAt = now.Add(r.cfg.GCTimeout)
		r.routeChanged(rt)
	}
}

func (r *Router) periodic() {
	if !r.started {
		return
	}
	r.expireRoutes()
	r.sendUpdates()
	r.tick = r.k.After(r.cfg.UpdateInterval, r.periodicFn)
}

// expireRoutes times out stale learned routes and garbage-collects dead
// ones.
func (r *Router) expireRoutes() {
	now := r.k.Now()
	for p, rt := range r.routes {
		if rt.via.IsZero() {
			// Direct routes die with their interface, not by timeout.
			ifc := r.node.Interface(rt.ifIndex)
			dead := ifc == nil || !ifc.NIC.Up()
			if dead && rt.metric < Infinity {
				rt.metric = Infinity
				rt.garbage = true
				rt.gcAt = now.Add(r.cfg.GCTimeout)
				r.routeChanged(rt)
			} else if !dead && rt.metric >= Infinity {
				rt.metric = 1
				rt.garbage = false
				r.routeChanged(rt)
			}
			continue
		}
		if rt.garbage {
			if now >= rt.gcAt {
				delete(r.routes, p)
				r.node.Table.Remove(p, stack.SourceRIP)
			}
			continue
		}
		if now.Sub(rt.lastHeard) >= r.cfg.RouteTimeout {
			rt.metric = Infinity
			rt.garbage = true
			rt.gcAt = now.Add(r.cfg.GCTimeout)
			r.routeChanged(rt)
		}
	}
}

// routeChanged updates the kernel table and schedules a triggered update.
func (r *Router) routeChanged(rt *route) {
	r.stats.RouteChanges++
	if rt.metric >= Infinity {
		r.node.Table.Remove(rt.prefix, stack.SourceRIP)
	} else if !rt.via.IsZero() {
		r.node.Table.Add(stack.Route{
			Prefix:  rt.prefix,
			Via:     rt.via,
			IfIndex: rt.ifIndex,
			Metric:  rt.metric,
			Source:  stack.SourceRIP,
		})
	}
	r.scheduleTriggered()
}

func (r *Router) scheduleTriggered() {
	if !r.started || r.trigTimer.Pending() {
		return
	}
	delay := sim.Duration(1)
	if r.cfg.TriggeredDelay > 0 {
		delay = sim.Duration(r.k.Rand().Int63n(int64(r.cfg.TriggeredDelay)) + 1)
	}
	r.trigTimer = r.k.After(delay, r.trigFn)
}

func (r *Router) fireTriggered() {
	if !r.started {
		return
	}
	r.stats.TriggeredUpdates++
	r.sendUpdates()
}

// wire format: 1 byte version, 1 byte count, then count entries of
// 4-byte prefix, 1-byte bits, 1-byte metric (6 bytes each).
const entryLen = 6

// MaxEntriesPerUpdate bounds one update message, as RFC 1058 does (25
// entries keeps a message at 152 bytes, under the 576-byte minimum MTU).
// The bound also keeps the 1-byte count honest: on generated internets
// (internal/topo) a table holds hundreds of prefixes, and packing them
// into one message would silently truncate the count to byte(n).
const MaxEntriesPerUpdate = 25

// encodeEntry writes one advertisement into e (entryLen bytes).
func encodeEntry(e []byte, p ipv4.Prefix, metric int) {
	binary.BigEndian.PutUint32(e[0:], uint32(p.Addr))
	e[4] = byte(p.Bits)
	e[5] = byte(metric)
}

// decodeMessage validates a wire message and calls fn for each entry
// carried, with the metric exactly as advertised (the receiver-side +1
// and Infinity clamp are routing policy, not wire format). Returns
// false for data that is not a version-1 message. A count larger than
// the data actually holds yields only the complete entries — the
// parser never reads past the payload.
func decodeMessage(data []byte, fn func(p ipv4.Prefix, metric int)) bool {
	if len(data) < 2 || data[0] != 1 {
		return false
	}
	count := int(data[1])
	for i, off := 0, 2; i < count && off+entryLen <= len(data); i, off = i+1, off+entryLen {
		p := ipv4.Prefix{
			Addr: ipv4.Addr(binary.BigEndian.Uint32(data[off:])),
			Bits: int(data[off+4]),
		}
		fn(p, int(data[off+5]))
	}
	return true
}

// sendUpdates broadcasts the distance vector out every up interface,
// applying split horizon with poisoned reverse per interface. Tables
// larger than MaxEntriesPerUpdate go out as several messages.
func (r *Router) sendUpdates() {
	// Compose entries in prefix order so runs are bit-for-bit
	// reproducible regardless of map iteration.
	ordered := make([]*route, 0, len(r.routes))
	for _, rt := range r.routes {
		ordered = append(ordered, rt)
	}
	slices.SortFunc(ordered, func(a, b *route) int { return a.prefix.Compare(b.prefix) })
	for _, ifc := range r.node.Interfaces() {
		if !ifc.NIC.Up() || !r.ifaceAllowed(ifc) {
			continue
		}
		dst := udp.Endpoint{Addr: ipv4.Broadcast, Port: Port}
		payload := []byte{1, 0}
		count := 0
		flush := func() {
			if count == 0 {
				return
			}
			payload[1] = byte(count)
			r.stats.UpdatesSent++
			r.sock.SendToVia(ifc, dst, payload)
			payload = []byte{1, 0}
			count = 0
		}
		for _, rt := range ordered {
			metric := rt.metric
			if !rt.via.IsZero() && rt.ifIndex == ifc.Index {
				metric = Infinity // poisoned reverse
			}
			var e [entryLen]byte
			encodeEntry(e[:], rt.prefix, metric)
			payload = append(payload, e[:]...)
			count++
			r.stats.EntriesSent++
			if count == MaxEntriesPerUpdate {
				flush()
			}
		}
		flush()
	}
}

// input processes a neighbor's distance vector.
func (r *Router) input(from udp.Endpoint, data []byte, h ipv4.Header) {
	if len(data) < 2 || data[0] != 1 {
		return
	}
	if r.node.HasAddr(from.Addr) {
		return // our own broadcast echoed back
	}
	// Identify the arrival interface by which network the sender is on.
	var inIfc *stack.Interface
	for _, ifc := range r.node.Interfaces() {
		if ifc.Prefix.Contains(from.Addr) {
			inIfc = ifc
			break
		}
	}
	if inIfc == nil || !r.ifaceAllowed(inIfc) {
		return
	}
	r.stats.UpdatesReceived++
	now := r.k.Now()
	decodeMessage(data, func(p ipv4.Prefix, metric int) {
		metric++
		if metric > Infinity {
			metric = Infinity
		}
		r.consider(p, from.Addr, inIfc.Index, metric, now)
	})
}

// consider applies the Bellman–Ford update rules to one advertised route.
func (r *Router) consider(p ipv4.Prefix, via ipv4.Addr, ifIndex, metric int, now sim.Time) {
	rt, known := r.routes[p]
	switch {
	case !known:
		if metric >= Infinity {
			return
		}
		rt = &route{prefix: p, via: via, ifIndex: ifIndex, metric: metric, lastHeard: now}
		r.routes[p] = rt
		r.routeChanged(rt)
	case rt.via.IsZero():
		// Never replace a live directly connected route; an interface
		// marked down may be healed by a neighbor's path.
		if rt.metric < Infinity || metric >= Infinity {
			return
		}
		rt.via, rt.ifIndex, rt.metric, rt.garbage = via, ifIndex, metric, false
		rt.lastHeard = now
		r.routeChanged(rt)
	case rt.via == via:
		// Updates from the current next hop always apply.
		rt.lastHeard = now
		if metric != rt.metric {
			rt.metric = metric
			if metric >= Infinity && !rt.garbage {
				rt.garbage = true
				rt.gcAt = now.Add(r.cfg.GCTimeout)
			}
			if metric < Infinity {
				rt.garbage = false
			}
			r.routeChanged(rt)
		}
	case metric < rt.metric:
		rt.via, rt.ifIndex, rt.metric = via, ifIndex, metric
		rt.garbage = false
		rt.lastHeard = now
		r.routeChanged(rt)
	}
}

// Converged reports whether the router currently knows a live route to
// every prefix in want.
func (r *Router) Converged(want []ipv4.Prefix) bool {
	for _, p := range want {
		rt, ok := r.routes[p]
		if !ok || rt.metric >= Infinity {
			return false
		}
	}
	return true
}

// Metric returns the router's current metric for prefix p (direct
// networks are 1, each gateway hop adds 1), and whether a live route is
// known at all. Property tests compare it against the topology oracle's
// BFS hop count.
func (r *Router) Metric(p ipv4.Prefix) (int, bool) {
	rt, ok := r.routes[p]
	if !ok || rt.metric >= Infinity {
		return 0, false
	}
	return rt.metric, true
}

// RouteCount returns the number of live routes known.
func (r *Router) RouteCount() int {
	n := 0
	for _, rt := range r.routes {
		if rt.metric < Infinity {
			n++
		}
	}
	return n
}
