package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// fourTuple identifies one connection.
type fourTuple struct {
	local, remote Endpoint
}

// Transport is the per-node TCP layer: it demultiplexes segments to
// connections and listeners and owns the ephemeral port space.
type Transport struct {
	node  *stack.Node
	k     *sim.Kernel
	conns map[fourTuple]*Conn
	lists map[uint16]*Listener

	ephemeral uint16
	segsIn    uint64
	segsBad   uint64
	rstsSent  uint64

	// closed accumulates the counters of connections that have been
	// removed, so the node-level aggregate gauges (metrics registry)
	// keep counting a connection's traffic after it closes:
	// aggregate = closed + sum over live connections.
	closed Stats

	// txScratch is the shared segment-serialization buffer: Send copies
	// the wire image synchronously, so one scratch serves every
	// connection without allocating per segment.
	txScratch []byte
	// joinScratch is where a data segment whose bytes run across the end
	// of its connection's send ring is made contiguous.
	joinScratch []byte
}

// New attaches a TCP transport to node n, registering IP protocol 6.
func New(n *stack.Node) *Transport {
	t := &Transport{
		node:      n,
		k:         n.Kernel(),
		conns:     make(map[fourTuple]*Conn),
		lists:     make(map[uint16]*Listener),
		ephemeral: 40000,
	}
	n.RegisterProtocol(ipv4.ProtoTCP, t.input)
	n.OnIcmpError(t.icmpError)
	t.registerMetrics()
	return t
}

// registerMetrics binds the transport into the node's telemetry
// registry under <node>/tcp/... Demux counters bind directly; the
// per-connection counters are exposed as aggregate gauges (closed
// connections' totals plus the live ones), read only at snapshot time —
// the segment hot path still increments plain per-connection fields.
func (t *Transport) registerMetrics() {
	reg := metrics.For(t.k)
	node := t.node.Name()
	reg.Counter(node, "tcp", "segs_in", &t.segsIn)
	reg.Counter(node, "tcp", "segs_bad", &t.segsBad)
	reg.Counter(node, "tcp", "rsts_sent", &t.rstsSent)
	for _, sc := range statCounters {
		reg.Gauge(node, "tcp", sc.name, func() uint64 {
			v := *sc.field(&t.closed)
			for _, c := range t.conns {
				v += *sc.field(&c.stats)
			}
			return v
		})
	}
	reg.Gauge(node, "tcp", "conns", func() uint64 { return uint64(len(t.conns)) })
}

// statCounters names each Stats counter once: the gauge registerMetrics
// exposes it under and the field fold sums.
var statCounters = [...]struct {
	name  string
	field func(*Stats) *uint64
}{
	{"bytes_sent", func(s *Stats) *uint64 { return &s.BytesSent }},
	{"bytes_retrans", func(s *Stats) *uint64 { return &s.BytesRetrans }},
	{"bytes_received", func(s *Stats) *uint64 { return &s.BytesReceived }},
	{"segs_sent", func(s *Stats) *uint64 { return &s.SegsSent }},
	{"segs_received", func(s *Stats) *uint64 { return &s.SegsReceived }},
	{"retransmits", func(s *Stats) *uint64 { return &s.Retransmits }},
	{"fast_retransmits", func(s *Stats) *uint64 { return &s.FastRetransmits }},
	{"timeouts", func(s *Stats) *uint64 { return &s.Timeouts }},
	{"dup_acks", func(s *Stats) *uint64 { return &s.DupAcksReceived }},
	{"zero_window_probes", func(s *Stats) *uint64 { return &s.ZeroWindowProbes }},
	{"source_quenches", func(s *Stats) *uint64 { return &s.SourceQuenches }},
	{"ce_marks_seen", func(s *Stats) *uint64 { return &s.CEMarksSeen }},
	{"eces_received", func(s *Stats) *uint64 { return &s.ECEsReceived }},
	{"cwrs_sent", func(s *Stats) *uint64 { return &s.CWRsSent }},
}

// fold adds a defunct connection's counters into the closed aggregate.
func (s *Stats) fold(c Stats) {
	for _, sc := range statCounters {
		*sc.field(s) += *sc.field(&c)
	}
}

// icmpError routes a network-reported error to the connection whose
// datagram provoked it (ports are in the first four quoted payload
// bytes).
func (t *Transport) icmpError(e stack.IcmpError) {
	if e.Original.Proto != ipv4.ProtoTCP || len(e.OrigPayload) < 4 {
		return
	}
	local := Endpoint{Addr: e.Original.Src, Port: binary.BigEndian.Uint16(e.OrigPayload)}
	remote := Endpoint{Addr: e.Original.Dst, Port: binary.BigEndian.Uint16(e.OrigPayload[2:])}
	if c, ok := t.conns[fourTuple{local: local, remote: remote}]; ok {
		c.icmpError(e)
	}
}

// Node returns the node the transport runs on.
func (t *Transport) Node() *stack.Node { return t.node }

// Listener accepts incoming connections on a port.
type Listener struct {
	t      *Transport
	port   uint16
	accept func(*Conn)
	opts   Options
	closed bool
}

// Errors returned by the transport API.
var (
	ErrPortInUse      = errors.New("tcp: port in use")
	ErrConnExists     = errors.New("tcp: connection already exists")
	ErrReset          = errors.New("tcp: connection reset by peer")
	ErrTimeout        = errors.New("tcp: connection timed out")
	ErrClosed         = errors.New("tcp: connection closed")
	ErrRefused        = errors.New("tcp: connection refused")
	ErrUnreachable    = errors.New("tcp: destination unreachable")
	ErrBufferFull     = errors.New("tcp: send buffer full")
	ErrNotEstablished = errors.New("tcp: connection not established")
)

// Listen binds port and invokes accept for each connection completing the
// three-way handshake. opts configures accepted connections.
func (t *Transport) Listen(port uint16, opts Options, accept func(*Conn)) (*Listener, error) {
	if _, taken := t.lists[port]; taken || port == 0 {
		return nil, ErrPortInUse
	}
	l := &Listener{t: t, port: port, accept: accept, opts: opts.withDefaults()}
	t.lists[port] = l
	return l, nil
}

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Close stops accepting. Existing connections are unaffected.
func (l *Listener) Close() {
	if !l.closed {
		l.closed = true
		delete(l.t.lists, l.port)
	}
}

// Dial opens a connection to dst: it allocates an ephemeral port, sends
// the SYN, and returns immediately with the connection in SYN-SENT.
// Register OnEstablished/OnClose callbacks to learn the outcome.
func (t *Transport) Dial(dst Endpoint, opts Options) (*Conn, error) {
	port := t.pickEphemeral()
	if port == 0 {
		return nil, ErrPortInUse
	}
	local := Endpoint{Addr: t.node.Addr(), Port: port}
	tuple := fourTuple{local: local, remote: dst}
	if _, exists := t.conns[tuple]; exists {
		return nil, ErrConnExists
	}
	c := newConn(t, local, dst, opts.withDefaults())
	t.conns[tuple] = c
	c.startActiveOpen()
	return c, nil
}

func (t *Transport) pickEphemeral() uint16 {
	for i := 0; i < 25000; i++ {
		p := t.ephemeral
		t.ephemeral++
		if t.ephemeral == 0 {
			t.ephemeral = 40000
		}
		if p == 0 {
			continue
		}
		if _, taken := t.lists[p]; taken {
			continue
		}
		inUse := false
		for tuple := range t.conns {
			if tuple.local.Port == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
	return 0
}

// ConnCount returns the number of live connections (all states except
// CLOSED), for tests and leak checks.
func (t *Transport) ConnCount() int { return len(t.conns) }

// input demultiplexes one IP datagram's worth of TCP.
func (t *Transport) input(h ipv4.Header, payload []byte) {
	seg, err := parseSegment(h.Src, h.Dst, payload)
	if err != nil {
		t.segsBad++
		return
	}
	t.segsIn++
	seg.ce = ipv4.ECN(h.TOS) == ipv4.CE
	local := Endpoint{Addr: h.Dst, Port: seg.dstPort}
	remote := Endpoint{Addr: h.Src, Port: seg.srcPort}
	if c, ok := t.conns[fourTuple{local: local, remote: remote}]; ok {
		c.segmentArrives(&seg)
		return
	}
	// No connection. A listener may spawn one for a SYN.
	if l, ok := t.lists[seg.dstPort]; ok && t.node.HasAddr(h.Dst) {
		if seg.syn() && !seg.hasACK() && !seg.rst() {
			c := newConn(t, local, remote, l.opts)
			c.acceptFn = l.accept
			t.conns[fourTuple{local: local, remote: remote}] = c
			c.startPassiveOpen(&seg)
			return
		}
	}
	// Otherwise: RST, unless the arriving segment was itself a RST.
	if !seg.rst() {
		t.sendRST(local, remote, &seg)
	}
}

// sendRST answers an unexpected segment, per RFC 793 p.36.
func (t *Transport) sendRST(local, remote Endpoint, seg *segment) {
	t.rstsSent++
	rst := segment{srcPort: local.Port, dstPort: remote.Port}
	if seg.hasACK() {
		rst.flags = flagRST
		rst.seq = seg.ack
	} else {
		rst.flags = flagRST | flagACK
		rst.ack = seg.seq + uint32(seg.segLen())
	}
	t.node.Send(ipv4.Header{Src: local.Addr, Dst: remote.Addr, Proto: ipv4.ProtoTCP},
		rst.marshalInto(&t.txScratch, local.Addr, remote.Addr))
}

// remove unlinks a defunct connection, folding its counters into the
// transport-level aggregate so telemetry survives the connection.
func (t *Transport) remove(c *Conn) {
	tuple := fourTuple{local: c.local, remote: c.remote}
	if t.conns[tuple] == c {
		delete(t.conns, tuple)
		t.closed.fold(c.stats)
	}
}

// String summarizes the transport for diagnostics.
func (t *Transport) String() string {
	return fmt.Sprintf("tcp(%s): %d conns, %d listeners, in=%d bad=%d rst=%d",
		t.node.Name(), len(t.conns), len(t.lists), t.segsIn, t.segsBad, t.rstsSent)
}
