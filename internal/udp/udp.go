// Package udp implements the User Datagram Protocol. UDP is the paper's
// counterexample to "reliability above all": a type of service for which
// the basic datagram — unordered, unacknowledged, cheap — is exactly what
// the application wants, which is why TCP and IP had to be split.
package udp

import (
	"encoding/binary"
	"errors"

	"darpanet/internal/ipv4"
	"darpanet/internal/packet"
	"darpanet/internal/stack"
)

// HeaderLen is the UDP header length.
const HeaderLen = 8

// Endpoint is a UDP address: host and port.
type Endpoint = ipv4.Endpoint

// Handler receives one datagram's payload along with its source endpoint
// and the IP header it arrived in. data is a view into a pooled receive
// buffer that is recycled when the handler returns: handlers that keep
// the bytes must copy them out.
type Handler func(from Endpoint, data []byte, h ipv4.Header)

// Stats counts per-transport UDP activity.
type Stats struct {
	OutDatagrams uint64
	InDatagrams  uint64
	NoPorts      uint64 // arrivals for ports nobody listens on
	InErrors     uint64 // checksum/length failures
}

// Transport is the per-node UDP layer. Create one with New; it registers
// itself for IP protocol 17.
type Transport struct {
	node      *stack.Node
	socks     map[uint16]*Socket
	ephemeral uint16
	stats     Stats

	// txScratch is the shared serialization buffer: the IP layer copies
	// the wire image synchronously in Send, so one scratch serves every
	// socket without allocating per datagram.
	txScratch []byte
}

// New attaches a UDP transport to node n.
func New(n *stack.Node) *Transport {
	t := &Transport{node: n, socks: make(map[uint16]*Socket), ephemeral: 49152}
	n.RegisterProtocol(ipv4.ProtoUDP, t.input)
	return t
}

// Stats returns a copy of the transport counters.
func (t *Transport) Stats() Stats { return t.stats }

// Node returns the node the transport is attached to.
func (t *Transport) Node() *stack.Node { return t.node }

// Socket is a bound UDP port.
type Socket struct {
	t       *Transport
	port    uint16
	handler Handler
	// TOS is the type-of-service octet stamped on outgoing datagrams.
	TOS uint8
	// TTL overrides the default IP TTL when nonzero. RIP uses TTL 1 so
	// its broadcasts never leave the local network.
	TTL uint8
}

// ErrPortInUse is returned when binding an occupied port.
var ErrPortInUse = errors.New("udp: port in use")

// Listen binds port (0 picks an ephemeral port) and directs arrivals to
// handler.
func (t *Transport) Listen(port uint16, handler Handler) (*Socket, error) {
	if port == 0 {
		port = t.pickEphemeral()
		if port == 0 {
			return nil, ErrPortInUse
		}
	} else if _, taken := t.socks[port]; taken {
		return nil, ErrPortInUse
	}
	s := &Socket{t: t, port: port, handler: handler}
	t.socks[port] = s
	return s, nil
}

func (t *Transport) pickEphemeral() uint16 {
	for i := 0; i < 16384; i++ {
		p := t.ephemeral
		t.ephemeral++
		if t.ephemeral == 0 {
			t.ephemeral = 49152
		}
		if _, taken := t.socks[p]; !taken && p != 0 {
			return p
		}
	}
	return 0
}

// Port returns the socket's bound port.
func (s *Socket) Port() uint16 { return s.port }

// Close releases the port.
func (s *Socket) Close() {
	if s.t.socks[s.port] == s {
		delete(s.t.socks, s.port)
	}
}

// SendTo transmits data to dst, from whichever of the node's addresses
// the route to dst leaves by.
func (s *Socket) SendTo(dst Endpoint, data []byte) error {
	h, payload, err := s.buildDatagram(dst, data, ipv4.Addr(0))
	if err != nil {
		return err
	}
	s.t.stats.OutDatagrams++
	return s.t.node.Send(h, payload)
}

// SendToVia transmits data to dst out a specific interface, with dst.Addr
// as the on-link next hop. Routing protocols use it to reach neighbors on
// each attached network regardless of the routing table's state.
func (s *Socket) SendToVia(ifc *stack.Interface, dst Endpoint, data []byte) error {
	h, payload, err := s.buildDatagram(dst, data, ifc.Addr)
	if err != nil {
		return err
	}
	s.t.stats.OutDatagrams++
	return s.t.node.SendVia(ifc, dst.Addr, h, payload)
}

// buildDatagram serializes the UDP header + data into the transport's
// scratch buffer (valid until the next build — Send copies it) and returns
// the IP header to send it with.
func (s *Socket) buildDatagram(dst Endpoint, data []byte, src ipv4.Addr) (ipv4.Header, []byte, error) {
	if HeaderLen+len(data) > 0xffff {
		return ipv4.Header{}, nil, errors.New("udp: datagram too long")
	}
	total := HeaderLen + len(data)
	b := s.t.txScratch
	if cap(b) < total {
		b = make([]byte, total)
		s.t.txScratch = b
	}
	b = b[:total]
	hdr := b
	binary.BigEndian.PutUint16(hdr[0:], s.port)
	binary.BigEndian.PutUint16(hdr[2:], dst.Port)
	binary.BigEndian.PutUint16(hdr[4:], uint16(total))
	binary.BigEndian.PutUint16(hdr[6:], 0) // checksum, filled below
	copy(b[HeaderLen:], data)
	// Checksum over pseudo-header + header + data. The pseudo-header
	// source must match what the IP layer will use; resolve it the same
	// way.
	h := ipv4.Header{Src: src, Dst: dst.Addr, Proto: ipv4.ProtoUDP, TOS: s.TOS, TTL: s.TTL}
	srcAddr := src
	if srcAddr.IsZero() {
		srcAddr = s.t.node.SourceFor(dst.Addr)
		if srcAddr.IsZero() {
			srcAddr = s.t.node.Addr()
		}
		h.Src = srcAddr
	}
	sum := ipv4.PseudoSum(srcAddr, dst.Addr, ipv4.ProtoUDP, uint16(total))
	sum = packet.PartialChecksum(sum, b)
	ck := packet.FinishChecksum(sum)
	if ck == 0 {
		ck = 0xffff // transmitted zero means "no checksum"
	}
	binary.BigEndian.PutUint16(hdr[6:], ck)
	return h, b, nil
}

// SendBroadcast transmits data to the limited broadcast address on the
// node's first network.
func (s *Socket) SendBroadcast(port uint16, data []byte) error {
	return s.SendTo(Endpoint{Addr: ipv4.Broadcast, Port: port}, data)
}

// input is the IP protocol handler.
func (t *Transport) input(h ipv4.Header, payload []byte) {
	if len(payload) < HeaderLen {
		t.stats.InErrors++
		return
	}
	srcPort := binary.BigEndian.Uint16(payload[0:])
	dstPort := binary.BigEndian.Uint16(payload[2:])
	ulen := int(binary.BigEndian.Uint16(payload[4:]))
	if ulen < HeaderLen || ulen > len(payload) {
		t.stats.InErrors++
		return
	}
	if ck := binary.BigEndian.Uint16(payload[6:]); ck != 0 {
		sum := ipv4.PseudoSum(h.Src, h.Dst, ipv4.ProtoUDP, uint16(ulen))
		sum = packet.PartialChecksum(sum, payload[:ulen])
		if packet.FinishChecksum(sum) != 0 {
			t.stats.InErrors++
			return
		}
	}
	s, ok := t.socks[dstPort]
	if !ok {
		t.stats.NoPorts++
		if h.Dst != ipv4.Broadcast {
			t.node.SendPortUnreachable(h, payload)
		}
		return
	}
	t.stats.InDatagrams++
	if s.handler != nil {
		s.handler(Endpoint{Addr: h.Src, Port: srcPort}, payload[HeaderLen:ulen], h)
	}
}
