package stack

import "darpanet/internal/ipv4"

// FlowKey identifies an accountable flow as a gateway can see one: the
// address pair and protocol of a datagram. The 1988 paper's seventh goal —
// accountability — founders exactly here: the gateway sees datagrams, but
// the accountable unit is the flow, and attributing datagrams to flows
// requires per-flow state in the supposedly stateless gateway. The
// FlowAccounting type makes that tension measurable: cap the flow table
// and watch attribution fail.
type FlowKey struct {
	Src, Dst ipv4.Addr
	Proto    uint8
}

// FlowCounters accumulates per-flow usage.
type FlowCounters struct {
	Packets uint64
	Bytes   uint64
}

// FlowAccounting is an optional per-node accounting table. A nil table
// records nothing (the zero-cost default, matching the paper's observation
// that the architecture ships with only "weak" datagram counting).
type FlowAccounting struct {
	// TotalPackets and TotalBytes are the per-datagram counters that
	// come for free — no state beyond two words.
	TotalPackets uint64
	TotalBytes   uint64
	// UnattributedPackets/Bytes count traffic that could not be charged
	// to a flow because the flow table was full.
	UnattributedPackets uint64
	UnattributedBytes   uint64

	limit int
	flows map[FlowKey]*FlowCounters
}

// NewFlowAccounting creates an accounting table holding at most limit
// flows (0 means unlimited).
func NewFlowAccounting(limit int) *FlowAccounting {
	return &FlowAccounting{limit: limit, flows: make(map[FlowKey]*FlowCounters)}
}

// EnableAccounting attaches a flow-accounting table to the node, charging
// every datagram the node originates, delivers or forwards.
func (n *Node) EnableAccounting(limit int) *FlowAccounting {
	n.acct = NewFlowAccounting(limit)
	registerAccounting(n, n.acct)
	return n.acct
}

// record charges one datagram. Safe on a nil receiver.
func (a *FlowAccounting) record(h ipv4.Header, wireBytes int) {
	if a == nil {
		return
	}
	a.TotalPackets++
	a.TotalBytes += uint64(wireBytes)
	key := FlowKey{Src: h.Src, Dst: h.Dst, Proto: h.Proto}
	c, ok := a.flows[key]
	if !ok {
		if a.limit > 0 && len(a.flows) >= a.limit {
			a.UnattributedPackets++
			a.UnattributedBytes += uint64(wireBytes)
			return
		}
		c = &FlowCounters{}
		a.flows[key] = c
	}
	c.Packets++
	c.Bytes += uint64(wireBytes)
}

// Flows returns the number of distinct flows the table holds.
func (a *FlowAccounting) Flows() int {
	if a == nil {
		return 0
	}
	return len(a.flows)
}
