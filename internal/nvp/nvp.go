// Package nvp implements a packet-voice protocol in the spirit of the
// Network Voice Protocol (NVP-II, which really was IP protocol 11).
//
// Real-time speech is the 1988 paper's sharpest example of a type of
// service that the reliable-by-default network would have ruined: "it is
// better to drop late speech than to delay all of it" — a late sample is
// worthless, a retransmitted one worse. NVP therefore sends constant-rate
// timestamped datagrams with no acknowledgement and no retransmission,
// and the receiver runs a fixed-delay playout buffer, counting what
// arrives in time, what arrives late (dropped) and what never arrives.
package nvp

import (
	"encoding/binary"

	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// headerLen is seq(4) + timestamp(8) + streamID(2) + pad(2).
const headerLen = 16

// Sender produces a constant-bit-rate voice stream: one frame of
// FrameBytes every FrameInterval.
type Sender struct {
	node *stack.Node
	k    *sim.Kernel
	dst  ipv4.Addr
	id   uint16

	// FrameInterval is the packetization interval (default 20 ms, the
	// classic telephony framing).
	FrameInterval sim.Duration
	// FrameBytes is the voice payload per frame (default 160 bytes:
	// 64 kb/s PCM at 20 ms).
	FrameBytes int
	// TOS stamps outgoing datagrams; voice wants low delay and, where
	// gateways honour it, priority.
	TOS uint8

	Sent uint64
	seq  uint32
	buf  []byte // reusable frame image; Send copies it synchronously
}

// NewSender creates a voice sender on node n targeting dst with the given
// stream id.
func NewSender(n *stack.Node, dst ipv4.Addr, id uint16) *Sender {
	return &Sender{
		node:          n,
		k:             n.Kernel(),
		dst:           dst,
		id:            id,
		FrameInterval: 20 * 1e6,
		FrameBytes:    160,
		TOS:           ipv4.TOSLowDelay,
	}
}

// Start begins transmitting for the given duration (0 = forever).
func (s *Sender) Start(duration sim.Duration) {
	stopAt := sim.Time(-1)
	if duration > 0 {
		stopAt = s.k.Now().Add(duration)
	}
	var tick func()
	tick = func() {
		if stopAt >= 0 && s.k.Now() >= stopAt {
			return
		}
		s.emit()
		s.k.After(s.FrameInterval, tick)
	}
	tick()
}

func (s *Sender) emit() {
	// The IP layer copies the payload into pooled storage synchronously,
	// so one scratch image serves every frame: a steady voice stream
	// allocates nothing per packet. The samples stay zero: nothing reads
	// a voice payload, only its size on the wire matters.
	if cap(s.buf) < headerLen+s.FrameBytes {
		s.buf = make([]byte, headerLen+s.FrameBytes)
	}
	payload := s.buf[:headerLen+s.FrameBytes]
	binary.BigEndian.PutUint32(payload[0:], s.seq)
	binary.BigEndian.PutUint64(payload[4:], uint64(s.k.Now()))
	binary.BigEndian.PutUint16(payload[12:], s.id)
	s.seq++
	s.Sent++
	s.node.Send(ipv4.Header{Dst: s.dst, Proto: ipv4.ProtoNVP, TOS: s.TOS}, payload)
}

// Stats summarizes a receiver's experience of the stream.
type Stats struct {
	Received  uint64 // frames that arrived at all
	OnTime    uint64 // frames that made their playout deadline
	Late      uint64 // frames dropped for missing the deadline
	Lost      uint64 // frames never seen (by highest-seq accounting)
	Duplicate uint64
	// Latency accounting over received frames.
	TotalDelay sim.Duration
	MaxDelay   sim.Duration
	MinDelay   sim.Duration
}

// MeanDelay returns the average one-way delay of received frames.
func (st Stats) MeanDelay() sim.Duration {
	if st.Received == 0 {
		return 0
	}
	return st.TotalDelay / sim.Duration(st.Received)
}

// Receiver consumes a voice stream with a fixed playout delay: a frame
// sent at t plays at t+PlayoutDelay; arriving after that is a miss.
type Receiver struct {
	node *stack.Node
	k    *sim.Kernel
	id   uint16

	// PlayoutDelay is the fixed buffering delay (default 100 ms).
	PlayoutDelay sim.Duration

	stats   Stats
	highSeq uint32
	seen    map[uint32]bool
}

// NewReceiver attaches a voice receiver for stream id to node n. It
// claims the node's NVP protocol slot for itself; a node terminating
// several concurrent streams wants a Mux instead.
func NewReceiver(n *stack.Node, id uint16) *Receiver {
	r := newReceiver(n, id)
	n.RegisterProtocol(ipv4.ProtoNVP, r.input)
	return r
}

// newReceiver builds a receiver without registering a protocol handler.
func newReceiver(n *stack.Node, id uint16) *Receiver {
	r := &Receiver{
		node:         n,
		k:            n.Kernel(),
		id:           id,
		PlayoutDelay: 100 * 1e6,
		seen:         make(map[uint32]bool),
	}
	r.stats.MinDelay = 1 << 62
	return r
}

// Mux demultiplexes incoming voice streams by stream id, so one node
// can terminate many concurrent calls: NewReceiver claims the node's
// single NVP protocol slot, which is fine for a two-party lab but not
// for a host the workload engine aims hundreds of generated calls at.
type Mux struct {
	node  *stack.Node
	recvs map[uint16]*Receiver
}

// NewMux attaches a stream demultiplexer to node n, claiming the NVP
// protocol slot once for every present and future stream.
func NewMux(n *stack.Node) *Mux {
	m := &Mux{node: n, recvs: make(map[uint16]*Receiver)}
	n.RegisterProtocol(ipv4.ProtoNVP, m.input)
	return m
}

// Receiver returns the per-stream receiver for id, creating it on first
// use.
func (m *Mux) Receiver(id uint16) *Receiver {
	if r, ok := m.recvs[id]; ok {
		return r
	}
	r := newReceiver(m.node, id)
	m.recvs[id] = r
	return r
}

// Close detaches stream id; later frames for it are ignored.
func (m *Mux) Close(id uint16) { delete(m.recvs, id) }

// input routes a frame to its stream's receiver by the id field.
func (m *Mux) input(h ipv4.Header, data []byte) {
	if len(data) < headerLen {
		return
	}
	if r, ok := m.recvs[binary.BigEndian.Uint16(data[12:])]; ok {
		r.input(h, data)
	}
}

// Stats returns the receiver's counters; Lost is computed against the
// highest sequence number observed.
func (r *Receiver) Stats() Stats {
	st := r.stats
	expected := uint64(r.highSeq) + 1
	if r.stats.Received == 0 {
		expected = 0
	}
	if expected > st.Received+st.Duplicate {
		st.Lost = expected - st.Received
	}
	if st.Received == 0 {
		st.MinDelay = 0
	}
	return st
}

func (r *Receiver) input(h ipv4.Header, data []byte) {
	if len(data) < headerLen {
		return
	}
	if binary.BigEndian.Uint16(data[12:]) != r.id {
		return
	}
	seq := binary.BigEndian.Uint32(data[0:])
	sentAt := sim.Time(binary.BigEndian.Uint64(data[4:]))
	now := r.k.Now()
	if r.seen[seq] {
		r.stats.Duplicate++
		return
	}
	r.seen[seq] = true
	if seq > r.highSeq {
		r.highSeq = seq
	}
	r.stats.Received++
	delay := now.Sub(sentAt)
	r.stats.TotalDelay += delay
	if delay > r.stats.MaxDelay {
		r.stats.MaxDelay = delay
	}
	if delay < r.stats.MinDelay {
		r.stats.MinDelay = delay
	}
	deadline := sentAt.Add(r.PlayoutDelay)
	if now > deadline {
		r.stats.Late++
		return // better dropped than delayed
	}
	r.stats.OnTime++
}
