package topo

import (
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// Sharded is a generated internet split across region kernels: one
// *core.Network per region, advanced in lock-step epochs by a
// sim.ShardGroup whose lookahead is the minimum cross-region trunk
// delay. The partition is part of the manifest; every cross-region
// trunk is a phys.Boundary pair drained at the epoch barrier in fixed
// order, so results are byte-identical at any worker count.
type Sharded struct {
	Spec      Spec
	Seed      int64
	Manifest  *Manifest
	Regions   []*core.Network
	Group     *sim.ShardGroup
	Lookahead sim.Duration

	nodeRegion map[string]int
	boundaries []*phys.Boundary
}

// GenerateSharded builds the internet spec describes as `regions`
// region networks (clamped to the backbone size) under conservative
// synchronization, with `workers` goroutines executing the regions each
// epoch. The generator runs twice: once for the manifest alone, because
// the partition (recorded in Manifest.Partition) needs the whole graph
// before the first node can be placed, and once more into the region
// networks, each node and intra-region net going to its region and each
// cross-region trunk becoming a core.AddCrossTrunk boundary pair. Global
// static routes (aggregated: stub tiers collapse to default routes) are
// installed before it returns.
//
// Both passes are the code Generate runs, so the wiring is the same at
// any region count: every node holds the same interfaces in the same
// order, with the same addresses, link addresses and NIC names, as in
// the serial build of (spec, seed). Region r's kernel is seeded
// seed + r·1 000 003, which makes region 0 the serial kernel and a
// 1-region build the serial internet, event for event; further regions
// draw jitter, loss and TCP initial sequence numbers from their own
// streams, so an N-region run has the serial run's routes — and, on
// loss-free media, its counters — but not its packet bytes
// (exp.TestSerialAndShardedRunsAgree).
//
// Everything about the build and the subsequent simulation depends only
// on (spec, seed, regions) — never on workers, which buys wall-clock
// parallelism and nothing else.
func GenerateSharded(spec Spec, seed int64, regions, workers int) *Sharded {
	m := ManifestOnly(spec, seed)
	part := PartitionManifest(spec, m, regions, seed)
	m.Partition = part

	s := &Sharded{
		Spec:       spec,
		Seed:       seed,
		Manifest:   m,
		Regions:    make([]*core.Network, part.Regions),
		nodeRegion: make(map[string]int, len(m.NodeDefs)),
	}
	for r := range s.Regions {
		s.Regions[r] = core.New(seed + int64(r)*1_000_003)
	}

	// Where the second pass sends each net: its region, or — a cross
	// trunk, marked -1 — the regions of its two ends.
	lab := &regionLab{Sharded: s, netRegion: make(map[string]int, len(m.NetDefs)), ends: make(map[string][]int, part.CrossLinks)}
	for i, nf := range m.NetDefs {
		lab.netRegion[nf.Name] = part.NetRegions[i]
	}
	for i, nd := range m.NodeDefs {
		s.nodeRegion[nd.Name] = part.NodeRegions[i]
		for _, n := range nd.Nets {
			if lab.netRegion[n] < 0 {
				lab.ends[n] = append(lab.ends[n], part.NodeRegions[i])
			}
		}
	}
	generate(spec, seed, lab)

	// The shard group. With no cross links (regions clamped to 1) any
	// positive lookahead works: epochs are then pure time slicing.
	look := time.Duration(part.LookaheadUS) * time.Microsecond
	if part.CrossLinks == 0 {
		look = time.Millisecond
	}
	s.Lookahead = look
	kernels := make([]*sim.Kernel, len(s.Regions))
	for r, nw := range s.Regions {
		kernels[r] = nw.Kernel()
	}
	s.Group = sim.NewShardGroup(kernels, look, workers)
	// Halves drain in trunk creation order, which fixes the exchange's
	// RNG draw sequence.
	bs := s.boundaries
	s.Group.SetExchange(func() {
		for _, b := range bs {
			b.Drain()
		}
	})

	core.InstallStaticRoutesAcross(s.Regions)
	return s
}

// regionLab is the lab a sharded build generates into: a node goes to
// its region (Sharded.Net), a net to the region of its stations, and a
// cross trunk becomes a boundary pair between the regions of its ends.
type regionLab struct {
	*Sharded
	netRegion map[string]int   // by net name; -1 marks a cross trunk
	ends      map[string][]int // cross trunk -> the regions of its two ends
}

func (l *regionLab) AddNet(name, prefix string, kind core.NetKind, cfg phys.Config) {
	if r := l.netRegion[name]; r >= 0 {
		l.Regions[r].AddNet(name, prefix, kind, cfg)
		return
	}
	e := l.ends[name]
	ba, bb := core.AddCrossTrunk(l.Regions[e[0]], l.Regions[e[1]], name, prefix, cfg)
	l.boundaries = append(l.boundaries, ba, bb)
}

// Region returns the region index the named node lives in.
func (s *Sharded) Region(node string) int {
	r, ok := s.nodeRegion[node]
	if !ok {
		panic(fmt.Sprintf("topo: unknown node %q", node))
	}
	return r
}

// Net returns the region network holding the named node — the handle
// for its transports (UDP, TCP) and stack state.
func (s *Sharded) Net(node string) *core.Network { return s.Regions[s.Region(node)] }

// Addr returns the node's primary address, resolvable from any region.
func (s *Sharded) Addr(node string) ipv4.Addr { return s.Net(node).Addr(node) }

// Kernels returns every region's kernel, in region order.
func (s *Sharded) Kernels() []*sim.Kernel { return s.Group.Kernels() }

// RunFor advances every region by d of simulated time.
func (s *Sharded) RunFor(d sim.Duration) { s.Group.RunFor(d) }

// PathHops walks the installed routing state from node `from` toward
// the network of node `to`'s primary interface (a host's stub net),
// returning the number of gateways a datagram would cross and whether
// it arrives. The walk is core's RouteHops, which crosses region
// boundaries: a static audit (no frames move) that the determinism and
// audit tests compare against the manifest's BFS oracle. On a walk that
// does not arrive the count is how far it got.
func (s *Sharded) PathHops(from, to string) (int, bool) {
	stub := s.Net(to).Node(to).Interface(0).Prefix
	hops, verdict := s.Net(from).RouteHops(from, stub, len(s.nodeRegion))
	return hops, verdict == core.RouteDelivered
}
