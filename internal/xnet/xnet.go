// Package xnet implements a cross-Internet debugger in the spirit of XNET
// (IEN 158), one of the seven services the 1988 paper says the original
// architecture had to carry.
//
// XNET is the paper's illustration of why reliability does not belong in
// the network: a debugger must keep working when the target host is
// wedged, so it wants almost no protocol machinery on the far side — no
// connection state to corrupt, no acknowledgement discipline the dying
// host must uphold. It therefore runs directly on IP (protocol 14) with
// its own minimal stop-and-wait reliability at the *client*, and the
// target side is a stateless request/response responder.
package xnet

import (
	"encoding/binary"
	"errors"

	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// Operation codes.
const (
	OpPeek  = 1 // read target memory
	OpReply = 0x80
	OpError = 0xff
)

// headerLen is the fixed request/reply header: op(1) pad(1) id(2)
// addr(4) count(2).
const headerLen = 10

// message is the wire form shared by requests and replies.
type message struct {
	op      uint8
	id      uint16
	addr    uint32
	count   uint16
	payload []byte
}

func (m *message) marshal() []byte {
	b := make([]byte, headerLen+len(m.payload))
	b[0] = m.op
	binary.BigEndian.PutUint16(b[2:], m.id)
	binary.BigEndian.PutUint32(b[4:], m.addr)
	binary.BigEndian.PutUint16(b[8:], m.count)
	copy(b[headerLen:], m.payload)
	return b
}

var errBad = errors.New("xnet: malformed message")

func parse(data []byte) (message, error) {
	if len(data) < headerLen {
		return message{}, errBad
	}
	return message{
		op:      data[0],
		id:      binary.BigEndian.Uint16(data[2:]),
		addr:    binary.BigEndian.Uint32(data[4:]),
		count:   binary.BigEndian.Uint16(data[8:]),
		payload: data[headerLen:],
	}, nil
}

// Target is the debuggee side: a stateless responder over a simulated
// memory. It keeps no per-debugger state whatsoever — the property the
// paper's argument needs.
type Target struct {
	node   *stack.Node
	memory []byte
	// Requests served, for tests.
	Served uint64
}

// NewTarget attaches a debugging target with memSize bytes of simulated
// memory to node n.
func NewTarget(n *stack.Node, memSize int) *Target {
	t := &Target{node: n, memory: make([]byte, memSize)}
	n.RegisterProtocol(ipv4.ProtoXNET, t.input)
	return t
}

func (t *Target) input(h ipv4.Header, data []byte) {
	m, err := parse(data)
	if err != nil {
		return
	}
	reply := message{op: m.op | OpReply, id: m.id, addr: m.addr}
	switch m.op {
	case OpPeek:
		end := int(m.addr) + int(m.count)
		if int(m.addr) > len(t.memory) || end > len(t.memory) {
			reply.op = OpError
		} else {
			reply.payload = t.memory[m.addr:end]
			reply.count = m.count
		}
	default:
		reply.op = OpError
	}
	t.Served++
	t.node.Send(ipv4.Header{Dst: h.Src, Proto: ipv4.ProtoXNET, TOS: h.TOS}, reply.marshal())
}

// Client is the debugger side: it issues requests with stop-and-wait
// retransmission and matches replies by id.
type Client struct {
	node    *stack.Node
	k       *sim.Kernel
	nextID  uint16
	pending map[uint16]*call

	// Retry policy.
	Timeout sim.Duration
	Retries int

	// Stats.
	Sent, Resent, Replies, Failures uint64
}

type call struct {
	m     message
	dst   ipv4.Addr
	tries int
	timer sim.Timer
	done  func(payload []byte, err error)
}

// ErrTimeout is reported when a request exhausts its retries.
var ErrTimeout = errors.New("xnet: request timed out")

// ErrRemote is reported when the target rejects the request.
var ErrRemote = errors.New("xnet: target error")

// NewClient attaches a debugger client to node n.
func NewClient(n *stack.Node) *Client {
	c := &Client{
		node:    n,
		k:       n.Kernel(),
		pending: make(map[uint16]*call),
		Timeout: 500 * 1e6, // 500 ms
		Retries: 5,
	}
	n.RegisterProtocol(ipv4.ProtoXNET, c.input)
	return c
}

// Peek reads count bytes at addr in the target's memory.
func (c *Client) Peek(dst ipv4.Addr, addr uint32, count int, done func([]byte, error)) {
	c.issue(dst, message{op: OpPeek, addr: addr, count: uint16(count)}, done)
}

func (c *Client) issue(dst ipv4.Addr, m message, done func([]byte, error)) {
	c.nextID++
	m.id = c.nextID
	cl := &call{m: m, dst: dst, done: done}
	c.pending[m.id] = cl
	c.send(cl)
}

func (c *Client) send(cl *call) {
	cl.tries++
	if cl.tries == 1 {
		c.Sent++
	} else {
		c.Resent++
	}
	c.node.Send(ipv4.Header{Dst: cl.dst, Proto: ipv4.ProtoXNET}, cl.m.marshal())
	cl.timer = c.k.After(c.Timeout, func() {
		if cl.tries > c.Retries {
			delete(c.pending, cl.m.id)
			c.Failures++
			if cl.done != nil {
				cl.done(nil, ErrTimeout)
			}
			return
		}
		c.send(cl)
	})
}

func (c *Client) input(h ipv4.Header, data []byte) {
	m, err := parse(data)
	if err != nil || m.op&OpReply == 0 {
		return
	}
	cl, ok := c.pending[m.id]
	if !ok || h.Src != cl.dst {
		return
	}
	delete(c.pending, m.id)
	cl.timer.Stop()
	c.Replies++
	if cl.done == nil {
		return
	}
	if m.op == OpError {
		cl.done(nil, ErrRemote)
		return
	}
	// m.payload is a transient view of a pooled buffer; completion
	// callbacks routinely keep the response, so hand them a copy.
	cl.done(append([]byte(nil), m.payload...), nil)
}
