package drive

import (
	"bytes"
	"fmt"
	"math/rand"

	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// chainProto is an unassigned IP protocol number: the sink counts raw
// datagrams and no transport runs.
const chainProto = 200

// Chain is host → n gateways → host over zero-delay, infinite-rate
// point-to-point links, wired by hand from stack and phys so each
// gateway holds exactly its two connected routes plus one route per
// direction. Nothing but sim, phys, stack, ipv4 and packet runs.
type Chain struct {
	k         *sim.Kernel
	src       *stack.Node
	hdr       ipv4.Header
	payload   []byte
	delivered uint64
	corrupt   uint64 // datagrams that arrived with a payload other than the one sent
	sent      uint64
	links     int
}

// NewChain wires the chain. The payload is payloadLen bytes drawn from
// seed, so the datagram is 20+payloadLen bytes on the wire.
func NewChain(seed int64, gateways, payloadLen int) *Chain {
	k := sim.NewKernel(seed)
	c := &Chain{k: k, links: gateways + 1}
	nodes := make([]*stack.Node, gateways+2)
	for i := range nodes {
		switch i {
		case 0:
			nodes[i] = stack.NewNode(k, "src")
		case gateways + 1:
			nodes[i] = stack.NewNode(k, "dst")
		default:
			nodes[i] = stack.NewNode(k, fmt.Sprintf("g%d", i))
			nodes[i].Forwarding = true
		}
	}
	first := ipv4.MustParsePrefix("10.0.1.0/24")
	last := ipv4.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", c.links))
	for l := 1; l <= c.links; l++ {
		link := phys.NewP2P(k, fmt.Sprintf("l%d", l), phys.Config{MTU: 1500})
		pfx := ipv4.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", l))
		a, b := nodes[l-1], nodes[l]
		ia := a.AttachInterface(link, pfx.Host(1), pfx)
		ib := b.AttachInterface(link, pfx.Host(2), pfx)
		ia.AddNeighbor(ib.Addr, ib.NIC.Addr())
		ib.AddNeighbor(ia.Addr, ia.NIC.Addr())
		// Forward toward dst out of a's new interface, back toward src
		// out of b's.
		if l < c.links {
			a.Table.Add(stack.Route{Prefix: last, Via: ib.Addr, IfIndex: ia.Index, Source: stack.SourceStatic})
		}
		if l > 1 {
			b.Table.Add(stack.Route{Prefix: first, Via: ia.Addr, IfIndex: ib.Index, Source: stack.SourceStatic})
		}
	}
	dst := nodes[gateways+1]
	c.payload = make([]byte, payloadLen)
	rand.New(rand.NewSource(seed)).Read(c.payload)
	dst.RegisterProtocol(chainProto, func(_ ipv4.Header, p []byte) {
		c.delivered++
		if !bytes.Equal(p, c.payload) {
			c.corrupt++
		}
	})
	c.src = nodes[0]
	c.hdr = ipv4.Header{Dst: dst.Addr(), Proto: chainProto}
	return c
}

// Send originates n datagrams in bursts of burst, running the kernel
// dry after each burst.
func (c *Chain) Send(n, burst int) error {
	for n > 0 {
		b := burst
		if b > n {
			b = n
		}
		for i := 0; i < b; i++ {
			if err := c.src.Send(c.hdr, c.payload); err != nil {
				return err
			}
		}
		c.sent += uint64(b)
		n -= b
		c.k.Run()
	}
	return nil
}

// Sent and Delivered are cumulative datagram counts at the two ends;
// Corrupt counts deliveries whose payload differed from the one sent.
func (c *Chain) Sent() uint64      { return c.sent }
func (c *Chain) Delivered() uint64 { return c.delivered }
func (c *Chain) Corrupt() uint64   { return c.corrupt }

// Payload is the seeded datagram body every send carries.
func (c *Chain) Payload() []byte { return c.payload }

// Links is the number of wires a datagram crosses end to end.
func (c *Chain) Links() int { return c.links }

// PendingEvents is the kernel's queue depth right now.
func (c *Chain) PendingEvents() int { return c.k.PendingEvents() }

// Read snapshots the chain's registry.
func (c *Chain) Read() Reading { return read(c.k) }
