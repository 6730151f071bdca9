package stack

import (
	"errors"
	"fmt"

	"darpanet/internal/icmp"
	"darpanet/internal/ipv4"
	"darpanet/internal/packet"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// Interface binds a NIC to an IP address and the prefix of the network the
// NIC attaches to.
type Interface struct {
	Index     int
	NIC       *phys.NIC
	Addr      ipv4.Addr
	Prefix    ipv4.Prefix
	neighbors []neighbor
}

// neighbor is one row of an interface's neighbor table. A table holds a
// station per other attachment of its net — one on a point-to-point
// link, a dozen on the busiest LAN any experiment builds — so a slice
// scanned in order is both smaller and faster than a map.
type neighbor struct {
	ip   ipv4.Addr
	link phys.Addr
}

// AddNeighbor records the link-level address of an IP neighbor on this
// interface, replacing the one recorded for ip. darpanet resolves
// neighbors from this static table (populated by the topology builder);
// an unknown neighbor falls back to link broadcast, which is correct but
// chatty — the hub behaviour of an ARP-less LAN.
func (i *Interface) AddNeighbor(ip ipv4.Addr, link phys.Addr) {
	for j := range i.neighbors {
		if i.neighbors[j].ip == ip {
			i.neighbors[j].link = link
			return
		}
	}
	i.neighbors = append(i.neighbors, neighbor{ip, link})
}

// linkAddr resolves an on-link IP address to a link address.
func (i *Interface) linkAddr(ip ipv4.Addr) phys.Addr {
	if ip == ipv4.Broadcast {
		return phys.Broadcast
	}
	for _, nb := range i.neighbors {
		if nb.ip == ip {
			return nb.link
		}
	}
	return phys.Broadcast
}

// ProtocolHandler receives reassembled datagrams for one IP protocol
// number.
type ProtocolHandler func(h ipv4.Header, payload []byte)

// protoHandler is one row of a node's protocol table.
type protoHandler struct {
	proto uint8
	fn    ProtocolHandler
}

// Stats counts a node's IP-layer activity, in the spirit of the MIB
// ip group.
type Stats struct {
	InReceives   uint64 // datagrams arriving from interfaces
	InDelivers   uint64 // datagrams delivered to a local protocol
	InHdrErrors  uint64 // parse/checksum failures
	Forwarded    uint64 // datagrams relayed (gateway function)
	OutRequests  uint64 // locally originated datagrams
	TTLDrops     uint64 // forwarding drops for expired TTL
	NoRoute      uint64 // drops for missing route
	NoProto      uint64 // deliveries with no registered protocol
	FragCreated  uint64 // fragments emitted
	FragFails    uint64 // DF drops
	IfaceDown    uint64 // drops at down interfaces
	NotForwarder uint64 // transit datagrams discarded by a host
	IcmpSent     uint64 // ICMP error/quench messages originated
}

// Node is an internet node: a host, or — with Forwarding set — a gateway.
type Node struct {
	kernel *sim.Kernel
	name   string

	// Forwarding makes the node relay transit datagrams (a gateway).
	Forwarding bool

	ifaces   []*Interface
	Table    RouteTable
	handlers []protoHandler // ICMP, then at most UDP, TCP, XNET and NVP
	reasm    *ipv4.Reassembler
	ipID     uint16
	stats    Stats
	acct     *FlowAccounting
	pool     *packet.Pool
	txBuf    packet.Buffer // reusable serialization buffer (output is never reentrant)

	icmpErr []func(IcmpError)
	pings   map[uint16]func(seq uint16, rtt sim.Duration)
	pingID  uint16

	tap PacketTap

	linkWatchers []func(ifc *Interface, up bool)
}

// PacketTap observes every datagram crossing the node: send=true for
// transmissions (originated or forwarded), false for arrivals. raw is the
// wire image; taps must not modify or retain it.
type PacketTap func(send bool, ifaceName string, raw []byte)

// NewNode creates a node named name driven by kernel k.
func NewNode(k *sim.Kernel, name string) *Node {
	n := &Node{
		kernel: k,
		name:   name,
		reasm:  ipv4.NewReassembler(k, 0),
		pool:   PoolFor(k),
	}
	n.reasm.SetPool(n.pool)
	n.handlers = []protoHandler{{ipv4.ProtoICMP, n.icmpInput}}
	n.Table.ifUp = make([]uint64, 1) // a node's table: no interface is up until one attaches
	registerNode(n)
	return n
}

// Kernel returns the simulation kernel driving the node.
func (n *Node) Kernel() *sim.Kernel { return n.kernel }

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Stats returns a copy of the node's IP counters.
func (n *Node) Stats() Stats { return n.stats }

// Reassembler exposes the node's fragment reassembler, for tests.
func (n *Node) Reassembler() *ipv4.Reassembler { return n.reasm }

// SetPacketTap installs a datagram observer; nil disables it.
func (n *Node) SetPacketTap(t PacketTap) { n.tap = t }

// AttachInterface joins the node to medium m with the given address and
// prefix, installing the direct route. The interface name is derived from
// the node name and index. It panics on the interface whose index no
// route could name (more than maxIfIndex+1 on one node is a caller bug),
// before anything is attached to m.
func (n *Node) AttachInterface(m phys.Medium, addr ipv4.Addr, prefix ipv4.Prefix) *Interface {
	idx := len(n.ifaces)
	if idx > maxIfIndex {
		panic(fmt.Sprintf("stack: %s already has %d interfaces, the most a route's interface index can tell apart", n.name, idx))
	}
	nic := m.Attach(fmt.Sprintf("%s.if%d", n.name, idx))
	ifc := &Interface{
		Index:  idx,
		NIC:    nic,
		Addr:   addr,
		Prefix: prefix,
	}
	nic.SetPool(n.pool)
	nic.SetReceiver(func(f phys.Frame) { n.inputFrame(ifc, f) })
	n.Table.setIfUp(idx, nic.Up())
	nic.OnStateChange(func(up bool) {
		n.Table.setIfUp(idx, up) // first, so that a watcher's lookups see it
		for _, fn := range n.linkWatchers {
			fn(ifc, up)
		}
	})
	n.ifaces = append(n.ifaces, ifc)
	n.Table.Add(Route{Prefix: prefix, IfIndex: idx, Metric: 0, Source: SourceDirect})
	return ifc
}

// OnLinkChange registers fn to run whenever one of the node's interfaces
// changes administrative state. Routing protocols use it to react to link
// failure immediately instead of waiting for route timeouts.
func (n *Node) OnLinkChange(fn func(ifc *Interface, up bool)) {
	n.linkWatchers = append(n.linkWatchers, fn)
}

// Crash models abrupt gateway failure: every interface goes down, frames
// the node still has queued at its transmitters are dropped with their
// pooled storage released, and partially reassembled datagrams are
// flushed. Protocol state above IP (routing tables, connections) is the
// caller's to tear down — fate-sharing puts it with the endpoints, not
// here.
func (n *Node) Crash() {
	for _, ifc := range n.ifaces {
		ifc.NIC.SetUp(false)
	}
	for _, ifc := range n.ifaces {
		ifc.NIC.FlushQueue()
	}
	n.reasm.Flush()
}

// Restart brings a crashed node's interfaces back up. IP-layer state
// (routing table contents beyond direct routes, reassembly) starts
// empty, as after a reboot.
func (n *Node) Restart() {
	for _, ifc := range n.ifaces {
		ifc.NIC.SetUp(true)
	}
}

// Interfaces returns the node's interfaces.
func (n *Node) Interfaces() []*Interface { return n.ifaces }

// Interface returns the interface with the given index, or nil.
func (n *Node) Interface(idx int) *Interface {
	if idx < 0 || idx >= len(n.ifaces) {
		return nil
	}
	return n.ifaces[idx]
}

// Addr returns the node's primary (first-interface) address, or zero.
func (n *Node) Addr() ipv4.Addr {
	if len(n.ifaces) == 0 {
		return 0
	}
	return n.ifaces[0].Addr
}

// HasAddr reports whether a is one of the node's interface addresses.
func (n *Node) HasAddr(a ipv4.Addr) bool {
	for _, i := range n.ifaces {
		if i.Addr == a {
			return true
		}
	}
	return false
}

// RegisterProtocol directs reassembled datagrams with the given IP
// protocol number to fn, in place of any handler it had. The payload
// passed to fn is a view into a pooled receive buffer that is recycled
// when fn returns: handlers that keep the bytes must copy.
func (n *Node) RegisterProtocol(proto uint8, fn ProtocolHandler) {
	for i := range n.handlers {
		if n.handlers[i].proto == proto {
			n.handlers[i].fn = fn
			return
		}
	}
	n.handlers = append(n.handlers, protoHandler{proto, fn})
}

// NextID returns a fresh IP identification value for a locally originated
// datagram.
func (n *Node) NextID() uint16 {
	n.ipID++
	return n.ipID
}

// SourceFor returns the address a datagram to dst should carry as its
// source: the address of the interface the routing table would send it
// out of. Transports use it so multihomed nodes speak with the address
// their peer expects (zero if no route).
func (n *Node) SourceFor(dst ipv4.Addr) ipv4.Addr {
	if dst == ipv4.Broadcast {
		return n.Addr()
	}
	rt, ok := n.Table.Lookup(dst)
	if !ok {
		return 0
	}
	return n.ifaces[rt.IfIndex].Addr
}

// Errors returned by Send.
var (
	ErrNoRoute   = errors.New("stack: no route to destination")
	ErrIfaceDown = errors.New("stack: outgoing interface is down")
)

// Send originates a datagram. Zero TTL is replaced with the default; zero
// ID is replaced with a fresh one. The source address, if zero, is set
// from the outgoing interface.
func (n *Node) Send(h ipv4.Header, payload []byte) error {
	if h.TTL == 0 {
		h.TTL = ipv4.DefaultTTL
	}
	if h.ID == 0 {
		h.ID = n.NextID()
	}
	n.stats.OutRequests++
	if h.Dst == ipv4.Broadcast {
		// Limited broadcast: out the first interface, never forwarded.
		if len(n.ifaces) == 0 {
			return ErrNoRoute
		}
		ifc := n.ifaces[0]
		if h.Src.IsZero() {
			h.Src = ifc.Addr
		}
		return n.output(ifc, ipv4.Broadcast, h, payload)
	}
	rt, ok := n.Table.Lookup(h.Dst)
	if !ok {
		n.stats.NoRoute++
		return ErrNoRoute
	}
	ifc := n.ifaces[rt.IfIndex]
	if h.Src.IsZero() {
		h.Src = ifc.Addr
	}
	nexthop := h.Dst
	if !rt.Via.IsZero() {
		nexthop = rt.Via
	}
	return n.output(ifc, nexthop, h, payload)
}

// SendVia originates a datagram out a specific interface to a specific
// next hop, bypassing the routing table. Routing protocols use it to talk
// to direct neighbors even while the table is in flux.
func (n *Node) SendVia(ifc *Interface, nexthop ipv4.Addr, h ipv4.Header, payload []byte) error {
	if h.TTL == 0 {
		h.TTL = ipv4.DefaultTTL
	}
	if h.ID == 0 {
		h.ID = n.NextID()
	}
	if h.Src.IsZero() {
		h.Src = ifc.Addr
	}
	n.stats.OutRequests++
	return n.output(ifc, nexthop, h, payload)
}

// output fragments as needed for the interface MTU, serializes, resolves
// the next hop and transmits.
func (n *Node) output(ifc *Interface, nexthop ipv4.Addr, h ipv4.Header, payload []byte) error {
	if !ifc.NIC.Up() {
		n.stats.IfaceDown++
		return ErrIfaceDown
	}
	mtu := ifc.NIC.MTU()
	link := ifc.linkAddr(nexthop)
	if ipv4.HeaderLen+len(payload) <= mtu {
		// Fast path: the datagram fits in one frame.
		return n.sendDatagram(ifc, link, h, payload)
	}
	frags, err := ipv4.NewFragmenter(h, payload, mtu)
	if err != nil {
		n.stats.FragFails++
		return err
	}
	n.stats.FragCreated += uint64(frags.Count())
	for fh, p, ok := frags.Next(); ok; fh, p, ok = frags.Next() {
		if err := n.sendDatagram(ifc, link, fh, p); err != nil {
			return err
		}
	}
	return nil
}

// sendDatagram serializes one already-fragment-sized datagram into the
// node's pooled buffer and transmits it; the NIC takes ownership of the
// wire image.
func (n *Node) sendDatagram(ifc *Interface, link phys.Addr, h ipv4.Header, payload []byte) error {
	b := &n.txBuf
	b.Reset(n.pool, ipv4.HeaderLen, payload)
	if err := h.Marshal(b); err != nil {
		b.Release()
		return err
	}
	n.acct.record(h, b.Len())
	if n.tap != nil {
		n.tap(true, ifc.NIC.Name(), b.Bytes())
	}
	ifc.NIC.Send(link, b.Bytes())
	return nil
}

// inputFrame is the NIC receive path: parse, deliver or forward. The node
// owns the frame: every path below either transfers it onward (forwarding
// reuses the frame's storage as the outgoing wire image) or releases it.
func (n *Node) inputFrame(ifc *Interface, f phys.Frame) {
	n.stats.InReceives++
	if n.tap != nil {
		n.tap(false, ifc.NIC.Name(), f.Payload)
	}
	h, payload, err := ipv4.Parse(f.Payload)
	if err != nil {
		n.stats.InHdrErrors++
		f.Release()
		return
	}
	local := n.HasAddr(h.Dst) || h.Dst == ipv4.Broadcast || h.Dst == ifc.Prefix.Host(int(1<<(32-ifc.Prefix.Bits))-1)
	if local {
		n.deliver(h, payload)
		f.Release()
		return
	}
	if !n.Forwarding {
		n.stats.NotForwarder++
		f.Release()
		return
	}
	n.forward(ifc, f, h, payload)
}

// deliver reassembles and hands the datagram to its protocol. Handlers
// must not retain data past their return: it aliases either the arriving
// frame (released by inputFrame) or a pool-backed reassembly buffer
// (released here).
func (n *Node) deliver(h ipv4.Header, payload []byte) {
	full, data, done := n.reasm.Add(h, payload)
	if !done {
		return
	}
	reassembled := h.MF || h.FragOff > 0
	var fn ProtocolHandler
	for _, ph := range n.handlers {
		if ph.proto == full.Proto {
			fn = ph.fn
			break
		}
	}
	if fn == nil {
		n.stats.NoProto++
		n.sendICMPError(full, data, icmp.TypeDestUnreachable, icmp.CodeProtoUnreachable)
	} else {
		n.stats.InDelivers++
		n.acct.record(full, full.TotalLen)
		fn(full, data)
	}
	if reassembled {
		n.pool.Put(data)
	}
}

// forward relays a transit datagram: decrement TTL, re-route, refragment
// if the new link is narrower. It owns frame f; the fast path below
// retransmits the received wire image in place — the whole point of the
// pooled hot path: a transit datagram crosses the gateway with zero
// copies and zero allocations.
func (n *Node) forward(in *Interface, f phys.Frame, h ipv4.Header, payload []byte) {
	raw := f.Payload
	rt, ok := n.Table.Lookup(h.Dst)
	if !ok {
		n.stats.NoRoute++
		n.sendICMPError(h, payload, icmp.TypeDestUnreachable, icmp.CodeNetUnreachable)
		f.Release()
		return
	}
	out := n.ifaces[rt.IfIndex]
	if !ipv4.DecrementTTL(raw) {
		n.stats.TTLDrops++
		n.sendICMPError(h, payload, icmp.TypeTimeExceeded, icmp.CodeTTLExceeded)
		f.Release()
		return
	}
	h.TTL--
	nexthop := h.Dst
	if !rt.Via.IsZero() {
		nexthop = rt.Via
	}
	n.stats.Forwarded++
	n.acct.record(h, len(raw))
	if len(raw) <= out.NIC.MTU() {
		if n.tap != nil {
			n.tap(true, out.NIC.Name(), raw)
		}
		// Ownership of the frame storage transfers to the outgoing NIC.
		out.NIC.Send(out.linkAddr(nexthop), raw)
		return
	}
	// Narrower outgoing link: fragment (or refuse if DF).
	frags, err := ipv4.NewFragmenter(h, payload, out.NIC.MTU())
	if err != nil {
		n.stats.FragFails++
		n.sendICMPError(h, payload, icmp.TypeDestUnreachable, icmp.CodeFragNeeded)
		f.Release()
		return
	}
	n.stats.FragCreated += uint64(frags.Count())
	link := out.linkAddr(nexthop)
	for fh, p, ok := frags.Next(); ok; fh, p, ok = frags.Next() {
		b := &n.txBuf
		b.Reset(n.pool, ipv4.HeaderLen, p)
		if err := fh.Marshal(b); err != nil {
			b.Release()
			break
		}
		if n.tap != nil {
			n.tap(true, out.NIC.Name(), b.Bytes())
		}
		out.NIC.Send(link, b.Bytes())
	}
	f.Release()
}
