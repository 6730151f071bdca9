package stack

import (
	"sort"

	"darpanet/internal/ipv4"
)

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

// Flow returns the counters for one flow, if present.
func (a *FlowAccounting) Flow(k FlowKey) (FlowCounters, bool) {
	if a == nil {
		return FlowCounters{}, false
	}
	c, ok := a.flows[k]
	if !ok {
		return FlowCounters{}, false
	}
	return *c, true
}

// TopFlows returns up to n flows ordered by byte count, descending.
func (a *FlowAccounting) TopFlows(n int) []struct {
	Key FlowKey
	FlowCounters
} {
	if a == nil {
		return nil
	}
	type row struct {
		Key FlowKey
		FlowCounters
	}
	rows := make([]row, 0, len(a.flows))
	for k, c := range a.flows {
		rows = append(rows, row{k, *c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Bytes != rows[j].Bytes {
			return rows[i].Bytes > rows[j].Bytes
		}
		ki, kj := rows[i].Key, rows[j].Key
		if ki.Src != kj.Src {
			return ki.Src < kj.Src
		}
		if ki.Dst != kj.Dst {
			return ki.Dst < kj.Dst
		}
		return ki.Proto < kj.Proto
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	out := make([]struct {
		Key FlowKey
		FlowCounters
	}, len(rows))
	for i, r := range rows {
		out[i].Key = r.Key
		out[i].FlowCounters = r.FlowCounters
	}
	return out
}
