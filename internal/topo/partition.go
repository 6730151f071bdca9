package topo

import (
	"fmt"
	"math/rand"
	"slices"
)

// PartitionDef records how a sharded build split a generated internet
// into regions. It is part of the manifest, so a run's region layout is
// as reproducible and inspectable as its graph: the same (spec, seed,
// regions) always yields the same assignment.
type PartitionDef struct {
	Regions  int   `json:"regions"`
	Seed     int64 `json:"seed"`
	Rotation int   `json:"rotation"` // seeded offset of the arc boundaries
	// NodeRegions is parallel to Manifest.NodeDefs; NetRegions to
	// Manifest.NetDefs, with -1 marking a cross-region (boundary) net.
	NodeRegions []int `json:"node_regions"`
	NetRegions  []int `json:"net_regions"`
	CrossLinks  int   `json:"cross_links"`
	// LookaheadUS is the minimum propagation delay over the cross nets:
	// the conservative-synchronization lookahead the region kernels can
	// run lock-step epochs at.
	LookaheadUS int64 `json:"lookahead_us"`
}

// PartitionManifest assigns every node and net of a generated internet
// to one of up to `regions` regions (clamped to the backbone size),
// seeded by seed. The cut follows the transit-stub structure: the
// backbone ring is sliced into contiguous arcs — rotated by a seeded
// offset so different seeds cut different trunks — and each stub
// gateway and its hosts follow their transit gateway, so the only nets
// crossing regions are point-to-point trunks. Non-ring shapes fall back
// to contiguous gateway-index blocks with the same follow-the-gateway
// rule for hosts; that is min-cut-exact for lines and trees (one trunk
// per boundary) and a plain heuristic for Waxman graphs.
func PartitionManifest(spec Spec, m *Manifest, regions int, seed int64) *PartitionDef {
	units := spec.Gateways // backbone slots the arc is cut over
	if regions > units {
		regions = units
	}
	if regions < 1 {
		regions = 1
	}
	rng := rand.New(rand.NewSource(seed))
	rot := rng.Intn(units)

	def := &PartitionDef{
		Regions:     regions,
		Seed:        seed,
		Rotation:    rot,
		NodeRegions: make([]int, len(m.NodeDefs)),
		NetRegions:  make([]int, len(m.NetDefs)),
	}
	arc := func(unit int) int { return ((unit + rot) % units) * regions / units }

	// backboneUnit maps a gateway (by its generated index) to the
	// backbone slot whose arc it follows: itself, or — in the
	// transit-stub shape, where gateways T.. are stub gateways — its
	// transit gateway.
	backboneUnit := func(gi int) int {
		if spec.Shape == TransitStub && gi >= spec.Gateways {
			return (gi - spec.Gateways) / spec.StubsPer
		}
		return gi
	}

	// Gateways by generated index: g<N> is the N-th forwarding node.
	gi := 0
	for i, nd := range m.NodeDefs {
		if nd.Forwarding {
			def.NodeRegions[i] = arc(backboneUnit(gi))
			gi++
		}
	}
	// Hosts follow the first gateway, in NodeDefs order, on their
	// (single) stub net.
	for i, nd := range m.NodeDefs {
		if nd.Forwarding {
			continue
		}
		on := m.netNodes.row(m.nodeNets.row(i)[0])
		gw := slices.IndexFunc(on, func(v int) bool { return m.NodeDefs[v].Forwarding })
		if gw < 0 {
			panic(fmt.Sprintf("topo: partition: host %s on net %s with no gateway", nd.Name, nd.Nets[0]))
		}
		def.NodeRegions[i] = def.NodeRegions[on[gw]]
	}

	// Net regions: unanimous region of the attached nodes, or -1 for a
	// cross link. Only point-to-point trunks may cross — a broadcast
	// net's stations all follow one gateway by construction, and the
	// boundary medium models exactly one station per side.
	for i, nf := range m.NetDefs {
		nodes := m.netNodes.row(i)
		if len(nodes) == 0 {
			panic(fmt.Sprintf("topo: partition: net %s has no stations", nf.Name))
		}
		r := def.NodeRegions[nodes[0]]
		cross := false
		for _, n := range nodes[1:] {
			if def.NodeRegions[n] != r {
				cross = true
				break
			}
		}
		if !cross {
			def.NetRegions[i] = r
			continue
		}
		if nf.Kind != "p2p" {
			panic(fmt.Sprintf("topo: partition: %s net %s crosses regions; only p2p trunks may", nf.Kind, nf.Name))
		}
		if len(nodes) != 2 {
			panic(fmt.Sprintf("topo: partition: cross trunk %s has %d stations, want 2", nf.Name, len(nodes)))
		}
		def.NetRegions[i] = -1
		def.CrossLinks++
		if def.LookaheadUS == 0 || nf.DelayUS < def.LookaheadUS {
			def.LookaheadUS = nf.DelayUS
		}
	}
	if def.CrossLinks > 0 && def.LookaheadUS <= 0 {
		panic("topo: partition: a cross trunk has no propagation delay; lookahead would be zero")
	}
	return def
}

// RegionLoads returns the node count per region — the load-balance
// figure the partition-quality tests bound.
func (p *PartitionDef) RegionLoads() []int {
	loads := make([]int, p.Regions)
	for _, r := range p.NodeRegions {
		loads[r]++
	}
	return loads
}
