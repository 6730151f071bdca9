package topo

import (
	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
)

// Sharded is a generated internet split across region kernels: one
// *core.Network per region, advanced in lock-step epochs by a
// sim.ShardGroup whose lookahead is the minimum cross-region trunk
// delay. The partition is part of the manifest; every cross-region
// trunk is a phys.Boundary pair drained at the epoch barrier in fixed
// order, so results are byte-identical at any worker count.
type Sharded struct {
	Manifest  *Manifest
	Regions   []*core.Network
	Group     *sim.ShardGroup
	Lookahead sim.Duration
}

// GenerateSharded builds the internet spec describes as `regions`
// region networks (clamped to the backbone size) under conservative
// synchronization, with `workers` goroutines executing the regions each
// epoch. The generator runs twice: once for the manifest alone, because
// the partition (recorded in Manifest.Partition) needs the whole graph
// before the first node can be placed, and once more into the region
// networks, each node and intra-region net going to its region and each
// cross-region trunk becoming a core.AddCrossTrunk boundary pair. Global
// static routes are installed before it returns, aggregated
// (core.InstallStaticRoutesAcross): the stub tier collapses to default
// routes and each transit gateway covers its runs of same-next-hop /24s
// with aligned blocks, forwarding every owned address as a route per net
// would — 31 420 routes at 2000 gateways instead of 958 750.
//
// Both passes are the code Generate runs, so the wiring is the same at
// any region count: every node holds the same interfaces in the same
// order, with the same addresses, link addresses and NIC names, as in
// the serial build of (spec, seed). core.NewRegions seeds region r's
// kernel seed + r·1 000 003, which makes region 0 the serial kernel and
// a 1-region build the serial internet, event for event; further regions
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

	s := &Sharded{Manifest: m, Regions: core.NewRegions(seed, part.Regions, workers)}
	generate(spec, seed, &lab{regions: s.Regions, part: m})
	s.Group = s.Regions[0].Group()
	s.Lookahead = s.Group.Lookahead()
	core.InstallStaticRoutesAcross(s.Regions)
	return s
}

// Net returns the region network holding the named node — the handle
// for its kernel — or nil if none does; any region answers for the rest.
func (s *Sharded) Net(node string) *core.Network { return s.Regions[0].Net(node) }

// Addr returns the node's primary address.
func (s *Sharded) Addr(node string) ipv4.Addr { return s.Regions[0].Addr(node) }

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
	stub := s.Regions[0].Node(to).Interface(0).Prefix
	hops, verdict := s.Net(from).RouteHops(from, stub, len(s.Manifest.NodeDefs))
	return hops, verdict == core.RouteDelivered
}
