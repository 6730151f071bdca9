// Package egp implements a path-vector exterior routing protocol in the
// spirit of the EGP the paper's "regions" used (and of the BGP that
// replaced it).
//
// The 1988 architecture's distributed-management goal has two layers:
// inside an administration, gateways gossip full topology (internal/rip);
// *between* administrations, border gateways exchange only reachability —
// which networks each autonomous system can deliver to, and through which
// chain of systems — because no administration will let another compute
// its interior routes. The AS path serves double duty: it is the metric
// (shorter is better) and the loop breaker (a system rejects any route
// whose path already names it).
package egp

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

// Port is the UDP port border gateways peer on.
const Port = 179

// AS identifies an autonomous system.
type AS uint16

// Config tunes the protocol timers.
type Config struct {
	// UpdateInterval is the period between full advertisements to each
	// peer.
	UpdateInterval sim.Duration
	// HoldTime expires a peer (and withdraws its routes) when no
	// update arrives.
	HoldTime sim.Duration
}

// DefaultConfig returns the default timers (10 s updates, 30 s hold).
func DefaultConfig() Config {
	return Config{UpdateInterval: 10 * 1e9, HoldTime: 30 * 1e9}
}

// Stats counts protocol activity.
type Stats struct {
	UpdatesSent     uint64
	UpdatesReceived uint64
	RoutesAccepted  uint64
	LoopsRejected   uint64
	PeerExpiries    uint64
}

// learnedRoute is one path-vector entry from one peer.
type learnedRoute struct {
	prefix ipv4.Prefix
	path   []AS // path[0] is the origin's neighbor... path[len-1] is the advertising AS
	peer   ipv4.Addr
}

// peer is a configured neighbor. Its AS is learned from its updates; a
// peer in the speaker's own AS is an interior peer (the iBGP idea): paths
// exchanged with it are not prepended, so the AS appears once in exterior
// paths no matter how many border gateways the AS has.
type peer struct {
	addr      ipv4.Addr
	as        AS // 0 until the peer speaks
	lastHeard sim.Time
	alive     bool
}

// Speaker runs the exterior protocol on one border gateway.
type Speaker struct {
	node *stack.Node
	k    *sim.Kernel
	sock *udp.Socket
	cfg  Config
	as   AS

	originated []ipv4.Prefix
	peers      map[ipv4.Addr]*peer
	// learned[prefix][peerAddr] = route
	learned map[ipv4.Prefix]map[ipv4.Addr]learnedRoute
	stats   Stats
	started bool
	tick    sim.Timer
}

// New creates a speaker for autonomous system as on border gateway n.
func New(n *stack.Node, t *udp.Transport, as AS, cfg Config) (*Speaker, error) {
	if cfg.UpdateInterval <= 0 {
		cfg = DefaultConfig()
	}
	s := &Speaker{
		node:    n,
		k:       n.Kernel(),
		cfg:     cfg,
		as:      as,
		peers:   make(map[ipv4.Addr]*peer),
		learned: make(map[ipv4.Prefix]map[ipv4.Addr]learnedRoute),
	}
	sock, err := t.Listen(Port, s.input)
	if err != nil {
		return nil, fmt.Errorf("egp: %w", err)
	}
	s.sock = sock
	reg := metrics.For(s.k)
	reg.Counter(n.Name(), "egp", "updates_sent", &s.stats.UpdatesSent)
	reg.Counter(n.Name(), "egp", "updates_received", &s.stats.UpdatesReceived)
	reg.Counter(n.Name(), "egp", "routes_accepted", &s.stats.RoutesAccepted)
	reg.Counter(n.Name(), "egp", "loops_rejected", &s.stats.LoopsRejected)
	reg.Counter(n.Name(), "egp", "peer_expiries", &s.stats.PeerExpiries)
	return s, nil
}

// AS returns the speaker's autonomous system number.
func (s *Speaker) AS() AS { return s.as }

// Stats returns a copy of the protocol counters.
func (s *Speaker) Stats() Stats { return s.stats }

// Originate adds prefixes this AS delivers to (its interior networks) to
// every future advertisement.
func (s *Speaker) Originate(prefixes ...ipv4.Prefix) {
	s.originated = append(s.originated, prefixes...)
}

// AddPeer configures an exterior neighbor by address (it must be
// reachable by the node's routing table — typically on a shared
// inter-AS link).
func (s *Speaker) AddPeer(addr ipv4.Addr) {
	s.peers[addr] = &peer{addr: addr, lastHeard: s.k.Now(), alive: false}
}

// Start begins the periodic advertisement cycle.
func (s *Speaker) Start() {
	if s.started {
		return
	}
	s.started = true
	jitter := sim.Duration(s.k.Rand().Int63n(int64(s.cfg.UpdateInterval)/2 + 1))
	s.tick = s.k.After(jitter, s.periodic)
}

// Stop halts the cycle.
func (s *Speaker) Stop() {
	s.started = false
	s.tick.Stop()
}

func (s *Speaker) periodic() {
	if !s.started {
		return
	}
	s.expirePeers()
	s.advertise()
	s.tick = s.k.After(s.cfg.UpdateInterval, s.periodic)
}

func (s *Speaker) expirePeers() {
	now := s.k.Now()
	for addr, p := range s.peers {
		if p.alive && now.Sub(p.lastHeard) >= s.cfg.HoldTime {
			p.alive = false
			s.stats.PeerExpiries++
			s.dropRoutesFrom(addr)
		}
	}
}

// dropRoutesFrom withdraws everything learned from a dead peer and
// reselects.
func (s *Speaker) dropRoutesFrom(addr ipv4.Addr) {
	for prefix, byPeer := range s.learned {
		if _, ok := byPeer[addr]; !ok {
			continue
		}
		delete(byPeer, addr)
		s.reselect(prefix)
	}
}

// Wire format: ver(1) senderAS(2) count(1), then per entry:
// prefix(4) bits(1) pathLen(1) path ASNs (2 bytes each).
const version = 1

func (s *Speaker) advertise() {
	routes := s.exportable()
	for _, p := range s.peers {
		// Interior peers (same AS) receive paths as they are; exterior
		// peers see the AS prepended — so the AS path names each
		// administration exactly once.
		interior := p.as != 0 && p.as == s.as
		payload := []byte{version, byte(s.as >> 8), byte(s.as), 0}
		count := 0
		for _, r := range routes {
			// Suppress echoing a route straight back to the peer it
			// was learned from; the receiver-side path check handles
			// longer loops.
			if r.peer == p.addr {
				continue
			}
			path := r.path
			if !interior {
				path = append([]AS{s.as}, r.path...)
			}
			entry := make([]byte, 6+2*len(path))
			binary.BigEndian.PutUint32(entry[0:], uint32(r.prefix.Addr))
			entry[4] = byte(r.prefix.Bits)
			entry[5] = byte(len(path))
			for i, as := range path {
				binary.BigEndian.PutUint16(entry[6+2*i:], uint16(as))
			}
			payload = append(payload, entry...)
			count++
		}
		// Empty updates still go out: they are the keepalive, and an
		// update listing nothing withdraws everything (full-table
		// replacement semantics).
		payload[3] = byte(count)
		s.stats.UpdatesSent++
		s.sock.SendTo(udp.Endpoint{Addr: p.addr, Port: Port}, payload)
	}
}

// exportable returns what this speaker advertises before any per-peer AS
// prepending: its own prefixes (empty path) plus its best learned routes.
func (s *Speaker) exportable() []learnedRoute {
	var out []learnedRoute
	for _, p := range s.originated {
		out = append(out, learnedRoute{prefix: p, path: nil})
	}
	prefixes := make([]ipv4.Prefix, 0, len(s.learned))
	for p := range s.learned {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, ipv4.Prefix.Compare)
	for _, prefix := range prefixes {
		best, ok := s.best(prefix)
		if !ok {
			continue
		}
		out = append(out, learnedRoute{prefix: prefix, path: best.path, peer: best.peer})
	}
	return out
}

// best selects the shortest-path route for prefix (ties: lowest peer
// address, for determinism).
func (s *Speaker) best(prefix ipv4.Prefix) (learnedRoute, bool) {
	byPeer := s.learned[prefix]
	var bestR learnedRoute
	found := false
	for _, r := range byPeer {
		if p, ok := s.peers[r.peer]; !ok || !p.alive {
			continue
		}
		if !found || len(r.path) < len(bestR.path) ||
			(len(r.path) == len(bestR.path) && r.peer < bestR.peer) {
			bestR = r
			found = true
		}
	}
	return bestR, found
}

func (s *Speaker) input(from udp.Endpoint, data []byte, h ipv4.Header) {
	if len(data) < 4 || data[0] != version {
		return
	}
	p, ok := s.peers[from.Addr]
	if !ok {
		return // not a configured peer
	}
	p.lastHeard = s.k.Now()
	p.alive = true
	p.as = AS(binary.BigEndian.Uint16(data[1:]))
	s.stats.UpdatesReceived++

	// Full-table semantics: this update replaces everything previously
	// learned from this peer; whatever it no longer lists is withdrawn.
	announced := make(map[ipv4.Prefix]bool)
	defer func() {
		for prefix, byPeer := range s.learned {
			if _, had := byPeer[from.Addr]; had && !announced[prefix] {
				delete(byPeer, from.Addr)
				s.reselect(prefix)
			}
		}
	}()

	count := int(data[3])
	off := 4
	for i := 0; i < count; i++ {
		if off+6 > len(data) {
			return
		}
		prefix := ipv4.Prefix{
			Addr: ipv4.Addr(binary.BigEndian.Uint32(data[off:])),
			Bits: int(data[off+4]),
		}
		pathLen := int(data[off+5])
		off += 6
		if off+2*pathLen > len(data) {
			return
		}
		path := make([]AS, pathLen)
		loops := false
		for j := 0; j < pathLen; j++ {
			path[j] = AS(binary.BigEndian.Uint16(data[off+2*j:]))
			if path[j] == s.as {
				loops = true
			}
		}
		off += 2 * pathLen
		if loops {
			s.stats.LoopsRejected++
			continue
		}
		if s.ownPrefix(prefix) {
			continue // we originate it; never prefer an exterior path
		}
		byPeer := s.learned[prefix]
		if byPeer == nil {
			byPeer = make(map[ipv4.Addr]learnedRoute)
			s.learned[prefix] = byPeer
		}
		byPeer[from.Addr] = learnedRoute{prefix: prefix, path: path, peer: from.Addr}
		announced[prefix] = true
		s.stats.RoutesAccepted++
		s.reselect(prefix)
	}
}

func (s *Speaker) ownPrefix(p ipv4.Prefix) bool {
	for _, o := range s.originated {
		if o == p {
			return true
		}
	}
	return false
}

// reselect updates the kernel routing table for prefix from the current
// best exterior route.
func (s *Speaker) reselect(prefix ipv4.Prefix) {
	best, ok := s.best(prefix)
	if !ok {
		s.node.Table.Remove(prefix, stack.SourceEGP)
		return
	}
	// Resolve the interface toward the peer.
	ifIndex := -1
	for _, ifc := range s.node.Interfaces() {
		if ifc.Prefix.Contains(best.peer) {
			ifIndex = ifc.Index
			break
		}
	}
	if ifIndex < 0 {
		return // peer not directly connected; unsupported topology
	}
	s.node.Table.Add(stack.Route{
		Prefix:  prefix,
		Via:     best.peer,
		IfIndex: ifIndex,
		Metric:  len(best.path),
		Source:  stack.SourceEGP,
	})
}

// RouteCount returns the number of prefixes with a live exterior route.
func (s *Speaker) RouteCount() int {
	n := 0
	for prefix := range s.learned {
		if _, ok := s.best(prefix); ok {
			n++
		}
	}
	return n
}

// PathTo returns the selected AS path for a prefix, for tests and
// diagnostics.
func (s *Speaker) PathTo(prefix ipv4.Prefix) ([]AS, bool) {
	r, ok := s.best(prefix)
	if !ok {
		return nil, false
	}
	return r.path, true
}
