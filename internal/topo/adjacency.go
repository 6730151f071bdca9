package topo

import "slices"

// Adjacency is the bipartite gateway/net incidence view of a generated
// manifest — the pure graph the survivability analysis works on,
// decoupled from the live Network. Gateways keep wiring order and nets
// keep manifest order, so every derived structure is deterministic.
type Adjacency struct {
	Gateways []string // forwarding nodes, wiring order
	Nets     []string // nets, manifest order
	// GatewayNets[g] lists the net indices gateway g attaches to;
	// NetGateways[n] is the inverse.
	GatewayNets [][]int
	NetGateways [][]int
	// HostsOn[n] counts non-forwarding nodes attached to net n — the
	// service endpoints stranded if the net is severed.
	HostsOn []int
}

// Adjacency builds the bipartite incidence view of the manifest.
func (m *Manifest) Adjacency() *Adjacency {
	a := &Adjacency{
		NetGateways: make([][]int, len(m.NetDefs)),
		HostsOn:     make([]int, len(m.NetDefs)),
	}
	for _, nd := range m.NetDefs {
		a.Nets = append(a.Nets, nd.Name)
	}
	for i, nd := range m.NodeDefs {
		nets := m.nodeNets.row(i)
		if !nd.Forwarding {
			for _, n := range nets {
				a.HostsOn[n]++
			}
			continue
		}
		g := len(a.Gateways)
		a.Gateways = append(a.Gateways, nd.Name)
		for _, n := range nets {
			a.NetGateways[n] = append(a.NetGateways[n], g)
		}
		a.GatewayNets = append(a.GatewayNets, slices.Clone(nets))
	}
	return a
}

// Trunk reports whether net n carries transit: two or more gateway
// attachments. Only trunks are meaningful cut targets — severing a
// single-gateway stub LAN destroys its endpoints outright rather than
// partitioning the internet.
func (a *Adjacency) Trunk(n int) bool { return len(a.NetGateways[n]) >= 2 }

// TrunkCount counts the trunks.
func (a *Adjacency) TrunkCount() int {
	c := 0
	for n := range a.Nets {
		if a.Trunk(n) {
			c++
		}
	}
	return c
}
