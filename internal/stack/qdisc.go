package stack

// Gateway queue installation. The phys disciplines are IP-ignorant —
// the policy queue's congestion mark and the priority queue's classifier
// are injected callbacks — so this is where the layers meet: the stack
// supplies ipv4.SetCE (in-place CE mark with incremental checksum
// patch), the precedence classifier and the kernel's RNG, and registers
// the queues' counters in the kernel's metrics registry.

import (
	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/phys"
)

// InstallQueuePolicy replaces the queueing discipline on every one of
// the node's interfaces with a policy queue of the given limit, and
// returns the installed queues (one per interface, in interface
// order). For the ecn kind the marker is ipv4.SetCE, so only datagrams
// whose transport negotiated ECN are marked; the rest fall back to
// early drop.
func (n *Node) InstallQueuePolicy(limit int, spec phys.PolicySpec) []*phys.PolicyQdisc {
	qs := make([]*phys.PolicyQdisc, 0, len(n.ifaces))
	n.installQdiscs(func(nic *phys.NIC, reg *metrics.Registry) phys.Qdisc {
		q := phys.NewPolicyQdisc(limit, spec, n.kernel.Rand(), ipv4.SetCE)
		q.RegisterMetrics(reg, n.name)
		qs = append(qs, q)
		return q
	})
	return qs
}

// InstallPriorityQueueing replaces the queueing discipline on every one
// of the node's interfaces with a ToS-precedence strict-priority queue:
// higher IP precedence is served first; within a band the discipline is
// FIFO with perBand capacity. Each interface's band counters register
// under <interface>/qdisc/.
func (n *Node) InstallPriorityQueueing(perBand int) {
	n.installQdiscs(func(nic *phys.NIC, reg *metrics.Registry) phys.Qdisc {
		q := phys.NewPriority(8, perBand, classifyPrecedence)
		q.RegisterMetrics(reg, nic.Name())
		return q
	})
}

// installQdiscs gives each interface's transmitter the discipline mk
// makes for it.
func (n *Node) installQdiscs(mk func(nic *phys.NIC, reg *metrics.Registry) phys.Qdisc) {
	reg := metrics.For(n.kernel)
	for _, ifc := range n.ifaces {
		ifc.NIC.SetQdisc(mk(ifc.NIC, reg))
	}
}

// classifyPrecedence maps a frame payload (an IP datagram) to its
// precedence band.
func classifyPrecedence(payload []byte) int {
	if len(payload) < 2 || payload[0]>>4 != 4 {
		return 0
	}
	return ipv4.Precedence(payload[1])
}
