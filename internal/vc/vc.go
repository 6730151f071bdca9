package vc

import (
	"encoding/binary"
	"fmt"

	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// NodeID identifies a switch or host in the virtual-circuit network.
type NodeID uint16

// Circuit-layer message types, carried over the reliable link layer.
const (
	msgSetup    = 1 // open a circuit: payload dst(2) src(2)
	msgSetupOK  = 2 // circuit accepted
	msgSetupErr = 3 // circuit refused (no route / no listener)
	msgData     = 4
	msgReset    = 6 // abnormal close (state lost somewhere)
)

// vcKey identifies a circuit's appearance on one link of a switch.
type vcKey struct {
	link int
	vcid uint16
}

// vcEntry is one direction of a switch's circuit table.
type vcEntry struct {
	outLink int
	outVC   uint16
}

// Switch is a store-and-forward switch with per-circuit state — the
// anti-gateway. Its circuits table is exactly the in-network conversation
// state the datagram architecture refuses to keep.
type Switch struct {
	net      *Network
	id       NodeID
	links    []*linkEnd
	routes   map[NodeID]int // destination -> link index
	circuits map[vcKey]vcEntry
	nextVC   []uint16 // per link

	// Stats.
	DataForwarded uint64
	SetupsSeen    uint64
	ResetsSent    uint64
}

// Host is a VC endpoint with one link to its switch.
type Host struct {
	net    *Network
	id     NodeID
	link   *linkEnd
	swID   NodeID
	nextVC uint16

	circuits map[uint16]*Circuit
	accept   func(*Circuit)
}

// Circuit is an endpoint's handle on one virtual circuit.
type Circuit struct {
	host   *Host
	vcid   uint16
	open   bool
	onOpen func(ok bool)
	onData func([]byte)
	onDown func() // reset

	BytesSent, BytesReceived uint64
}

// Network builds and owns a virtual-circuit network.
type Network struct {
	k        *sim.Kernel
	switches map[NodeID]*Switch
	hosts    map[NodeID]*Host
	adj      map[NodeID][]NodeID // topology for route computation
	linkCfg  phys.Config
	media    []*phys.P2P
	nodeOf   map[NodeID]interface{} // *Switch or *Host
}

// NewNetwork creates an empty VC network on kernel k; links created by
// Connect use cfg.
func NewNetwork(k *sim.Kernel, cfg phys.Config) *Network {
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	return &Network{
		k:        k,
		switches: make(map[NodeID]*Switch),
		hosts:    make(map[NodeID]*Host),
		adj:      make(map[NodeID][]NodeID),
		linkCfg:  cfg,
		nodeOf:   make(map[NodeID]interface{}),
	}
}

// AddSwitch creates a switch.
func (n *Network) AddSwitch(id NodeID) *Switch {
	s := &Switch{
		net:      n,
		id:       id,
		routes:   make(map[NodeID]int),
		circuits: make(map[vcKey]vcEntry),
	}
	n.switches[id] = s
	n.nodeOf[id] = s
	return s
}

// AddHost creates a host and connects it to the given switch.
func (n *Network) AddHost(id, swID NodeID) *Host {
	h := &Host{net: n, id: id, swID: swID, circuits: make(map[uint16]*Circuit), nextVC: 1}
	n.hosts[id] = h
	n.nodeOf[id] = h
	sw := n.switches[swID]
	link := phys.NewP2P(n.k, fmt.Sprintf("vclink-%d-%d", id, swID), n.linkCfg)
	n.media = append(n.media, link)
	hNIC := link.Attach(fmt.Sprintf("h%d", id))
	sNIC := link.Attach(fmt.Sprintf("s%d", swID))
	h.link = newLinkEnd(n.k, hNIC, h, 0)
	se := newLinkEnd(n.k, sNIC, sw, len(sw.links))
	sw.links = append(sw.links, se)
	sw.nextVC = append(sw.nextVC, 1)
	n.adj[id] = append(n.adj[id], swID)
	n.adj[swID] = append(n.adj[swID], id)
	return h
}

// Connect joins two switches with a reliable trunk.
func (n *Network) Connect(a, b NodeID) {
	sa, sb := n.switches[a], n.switches[b]
	link := phys.NewP2P(n.k, fmt.Sprintf("vctrunk-%d-%d", a, b), n.linkCfg)
	n.media = append(n.media, link)
	aNIC := link.Attach(fmt.Sprintf("s%d", a))
	bNIC := link.Attach(fmt.Sprintf("s%d", b))
	ea := newLinkEnd(n.k, aNIC, sa, len(sa.links))
	eb := newLinkEnd(n.k, bNIC, sb, len(sb.links))
	sa.links = append(sa.links, ea)
	sa.nextVC = append(sa.nextVC, 1)
	sb.links = append(sb.links, eb)
	sb.nextVC = append(sb.nextVC, 1)
	n.adj[a] = append(n.adj[a], b)
	n.adj[b] = append(n.adj[b], a)
}

// ComputeRoutes installs shortest-path next hops in every switch (the
// VC analogue of the static-route oracle).
func (n *Network) ComputeRoutes() {
	for _, sw := range n.switches {
		// BFS from this switch.
		type qe struct {
			node     NodeID
			firstHop NodeID
		}
		visited := map[NodeID]bool{sw.id: true}
		var queue []qe
		for _, nb := range n.adj[sw.id] {
			visited[nb] = true
			queue = append(queue, qe{nb, nb})
			sw.routes[nb] = sw.linkTo(nb)
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			// Hosts do not forward.
			if _, isHost := n.hosts[cur.node]; isHost {
				continue
			}
			for _, nb := range n.adj[cur.node] {
				if visited[nb] {
					continue
				}
				visited[nb] = true
				sw.routes[nb] = sw.linkTo(cur.firstHop)
				queue = append(queue, qe{nb, cur.firstHop})
			}
		}
	}
}

// linkTo finds the switch's link index leading to direct neighbor nb.
func (s *Switch) linkTo(nb NodeID) int {
	// The adjacency order matches link creation order.
	count := -1
	for _, peer := range s.net.adj[s.id] {
		count++
		if peer == nb {
			return count
		}
	}
	return -1
}

// CrashSwitch models a switch failure: its circuit table — the
// in-network conversation state — is lost, and its links go down.
func (n *Network) CrashSwitch(id NodeID) {
	sw := n.switches[id]
	sw.circuits = make(map[vcKey]vcEntry) // amnesia
	for _, l := range sw.links {
		l.nic.SetUp(false)
	}
}

// RestoreSwitch brings a crashed switch back, empty-handed: circuits that
// passed through it stay dead until the endpoints re-dial.
func (n *Network) RestoreSwitch(id NodeID) {
	sw := n.switches[id]
	for _, l := range sw.links {
		l.nic.SetUp(true)
		l.revive()
	}
}

// --- switch behaviour ---------------------------------------------------

func (s *Switch) linkDeliver(l *linkEnd, payload []byte) {
	if len(payload) < msgHeader {
		return
	}
	typ := payload[0]
	vcid := binary.BigEndian.Uint16(payload[1:])
	body := payload[msgHeader:]
	switch typ {
	case msgSetup:
		s.handleSetup(l, vcid, body)
	case msgData, msgSetupOK, msgSetupErr, msgReset:
		s.relay(l, typ, vcid, body)
	}
}

func (s *Switch) handleSetup(l *linkEnd, vcid uint16, body []byte) {
	s.SetupsSeen++
	if len(body) < 4 {
		return
	}
	dst := NodeID(binary.BigEndian.Uint16(body[0:]))
	outIdx, ok := s.routes[dst]
	if !ok || outIdx < 0 || outIdx >= len(s.links) {
		l.send(msgSetupErr, vcid, nil)
		return
	}
	out := s.links[outIdx]
	outVC := s.nextVC[outIdx]
	s.nextVC[outIdx]++
	s.circuits[vcKey{l.index, vcid}] = vcEntry{outLink: outIdx, outVC: outVC}
	s.circuits[vcKey{outIdx, outVC}] = vcEntry{outLink: l.index, outVC: vcid}
	out.send(msgSetup, outVC, body)
}

// relay forwards circuit traffic along the installed path, or resets the
// circuit if the switch has no memory of it.
func (s *Switch) relay(l *linkEnd, typ uint8, vcid uint16, body []byte) {
	ent, ok := s.circuits[vcKey{l.index, vcid}]
	if !ok {
		// Amnesia (or misdelivery): the X.25 answer is a reset.
		s.ResetsSent++
		l.send(msgReset, vcid, nil)
		return
	}
	if typ == msgData {
		s.DataForwarded++
	}
	if typ == msgReset {
		delete(s.circuits, vcKey{l.index, vcid})
		delete(s.circuits, vcKey{ent.outLink, ent.outVC})
	}
	s.links[ent.outLink].send(typ, ent.outVC, body)
}

// linkDead tears down every circuit using the failed link, resetting the
// survivors' side of each.
func (s *Switch) linkDead(dead *linkEnd) {
	for key, ent := range s.circuits {
		if key.link != dead.index {
			continue
		}
		delete(s.circuits, key)
		delete(s.circuits, vcKey{ent.outLink, ent.outVC})
		if ent.outLink >= 0 && ent.outLink < len(s.links) {
			s.ResetsSent++
			s.links[ent.outLink].send(msgReset, ent.outVC, nil)
		}
	}
}

// --- host behaviour -------------------------------------------------------

// Listen registers the host's accept callback for inbound circuits.
func (h *Host) Listen(accept func(*Circuit)) { h.accept = accept }

// Dial opens a circuit to dst; done reports success once the setup
// confirmation returns.
func (h *Host) Dial(dst NodeID, done func(ok bool)) *Circuit {
	vcid := h.nextVC
	h.nextVC++
	c := &Circuit{host: h, vcid: vcid, onOpen: done}
	h.circuits[vcid] = c
	body := make([]byte, 4)
	binary.BigEndian.PutUint16(body[0:], uint16(dst))
	binary.BigEndian.PutUint16(body[2:], uint16(h.id))
	h.link.send(msgSetup, vcid, body)
	return c
}

func (h *Host) linkDeliver(l *linkEnd, payload []byte) {
	if len(payload) < msgHeader {
		return
	}
	typ := payload[0]
	vcid := binary.BigEndian.Uint16(payload[1:])
	body := payload[msgHeader:]
	switch typ {
	case msgSetup:
		// Inbound circuit.
		if h.accept == nil {
			h.link.send(msgSetupErr, vcid, nil)
			return
		}
		c := &Circuit{host: h, vcid: vcid, open: true}
		h.circuits[vcid] = c
		h.link.send(msgSetupOK, vcid, nil)
		h.accept(c)
	case msgSetupOK:
		if c, ok := h.circuits[vcid]; ok && !c.open {
			c.open = true
			if c.onOpen != nil {
				c.onOpen(true)
			}
		}
	case msgSetupErr:
		if c, ok := h.circuits[vcid]; ok && !c.open {
			delete(h.circuits, vcid)
			if c.onOpen != nil {
				c.onOpen(false)
			}
		}
	case msgData:
		if c, ok := h.circuits[vcid]; ok && c.open {
			c.BytesReceived += uint64(len(body))
			if c.onData != nil {
				c.onData(body)
			}
		}
	case msgReset:
		if c, ok := h.circuits[vcid]; ok {
			delete(h.circuits, vcid)
			c.open = false
			if c.onDown != nil {
				c.onDown()
			}
		}
	}
}

// linkDead resets every circuit on the host when its access link fails.
func (h *Host) linkDead(*linkEnd) {
	for vcid, c := range h.circuits {
		delete(h.circuits, vcid)
		c.open = false
		if c.onDown != nil {
			c.onDown()
		}
	}
}

// --- circuit API ------------------------------------------------------------

// OnData registers the inbound data callback. Delivery is reliable and in
// order — that is the service this architecture sells.
func (c *Circuit) OnData(fn func([]byte)) { c.onData = fn }

// OnDown registers the callback fired when the network resets the
// circuit.
func (c *Circuit) OnDown(fn func()) { c.onDown = fn }

// Open reports whether the circuit is established and alive.
func (c *Circuit) Open() bool { return c.open }

// Send transmits one message over the circuit.
func (c *Circuit) Send(data []byte) {
	if !c.open {
		return
	}
	c.BytesSent += uint64(len(data))
	c.host.link.send(msgData, c.vcid, data)
}
