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
	byAddr     map[ipv4.Addr]string
	boundaries []*phys.Boundary
}

// GenerateSharded builds the internet spec describes as `regions`
// region networks (clamped to the backbone size) under conservative
// synchronization, with `workers` goroutines executing the regions each
// epoch. The manifest is generated first, partitioned (recorded in
// Manifest.Partition), then replayed into the region networks with
// core.ConnectShards standing in for cross-region trunks. Global static
// routes (aggregated: stub tiers collapse to default routes) are
// installed before it returns.
//
// What the replay shares with Generate is the graph, every node and net
// name, every prefix and every medium's parameters
// (TestBuildersShareGraphNamesPrefixesMedia). What it does not share is
// wiring order, so it is not the same internet address for address: the
// replay attaches a net's stations in NodeDefs order where the
// generator attaches them in creation order (the two ends of a
// ring-closing trunk swap .1 and .2 — 6 of topo.DefaultSpec()'s 760
// interfaces, even at one region), and every cross trunk is attached
// after all of a gateway's intra-region nets (at four regions 127 of
// those interfaces sit at a different index, which moves some boundary
// gateways' primary addresses). A serial run and a sharded run of one
// (spec, seed) therefore agree on hop counts and reachability, not on
// per-node traces; every recorded E15/E16 byte is the sharded wiring's.
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
		byAddr:     make(map[ipv4.Addr]string),
	}
	for r := range s.Regions {
		// Distinct deterministic seeds per region kernel: each region
		// draws jitter/loss from its own stream.
		s.Regions[r] = core.New(seed + int64(r+1)*1_000_003)
	}

	// Intra-region nets first, in manifest order.
	netRegion := make(map[string]int, len(m.NetDefs))
	for i, nf := range m.NetDefs {
		netRegion[nf.Name] = part.NetRegions[i]
		if r := part.NetRegions[i]; r >= 0 {
			s.Regions[r].AddNet(nf.Name, nf.Prefix, nf.kindOf(), nf.config())
		}
	}

	// Nodes in manifest order, attached to their intra-region nets;
	// hosts get their default route to the stub gateway, as in a serial
	// build. Cross nets are skipped here — ConnectShards attaches them.
	netGw := make(map[string]string, len(m.NetDefs))
	var intra []string
	for i, nd := range m.NodeDefs {
		r := part.NodeRegions[i]
		intra = intra[:0]
		for _, n := range nd.Nets {
			if netRegion[n] >= 0 {
				intra = append(intra, n)
			}
		}
		s.nodeRegion[nd.Name] = r
		if nd.Forwarding {
			s.Regions[r].AddGateway(nd.Name, intra...)
			for _, n := range nd.Nets {
				if _, ok := netGw[n]; !ok {
					netGw[n] = nd.Name
				}
			}
		} else {
			s.Regions[r].AddHost(nd.Name, intra...)
			s.Regions[r].SetDefaultRoute(nd.Name, netGw[nd.Nets[0]])
		}
	}

	// Cross-region trunks, in manifest order — also the barrier drain
	// order, which fixes the exchange's RNG draw sequence.
	ends := make(map[string][]string, part.CrossLinks)
	for _, nd := range m.NodeDefs {
		for _, n := range nd.Nets {
			if netRegion[n] < 0 {
				ends[n] = append(ends[n], nd.Name)
			}
		}
	}
	for i, nf := range m.NetDefs {
		if part.NetRegions[i] >= 0 {
			continue
		}
		e := ends[nf.Name]
		ra, rb := s.nodeRegion[e[0]], s.nodeRegion[e[1]]
		ba, bb := core.ConnectShards(s.Regions[ra], s.Regions[rb], e[0], e[1], nf.Name, nf.Prefix, nf.config())
		s.boundaries = append(s.boundaries, ba, bb)
	}

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
	bs := s.boundaries
	s.Group.SetExchange(func() {
		for _, b := range bs {
			b.Drain()
		}
	})

	core.InstallStaticRoutesAcross(s.Regions)

	// Global address directory for the cross-region route walk.
	for _, nw := range s.Regions {
		for _, name := range nw.Nodes() {
			for _, ifc := range nw.Node(name).Interfaces() {
				s.byAddr[ifc.Addr] = name
			}
		}
	}
	return s
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
// node `to` across region boundaries, returning the number of gateways
// a datagram would cross and whether it arrives. It is the sharded
// counterpart of core.Network.CheckRoute: a static audit (no frames
// move) that the determinism and audit tests compare against the
// manifest's BFS oracle.
func (s *Sharded) PathHops(from, to string) (int, bool) {
	if from == to {
		return 0, true
	}
	dst := s.Addr(to)
	cur := from
	for hops := 0; hops <= len(s.nodeRegion); hops++ {
		if cur == to {
			return hops - 1, true // arrived; `to` itself is not a relay
		}
		n := s.Net(cur).Node(cur)
		if cur != from && !n.Forwarding {
			return 0, false // routed into a dead end at a host
		}
		rt, ok := n.Table.Lookup(dst)
		if !ok {
			return 0, false
		}
		via := rt.Via
		if via.IsZero() {
			via = dst // direct route: the destination is on-link
		}
		next, ok := s.byAddr[via]
		if !ok {
			return 0, false
		}
		if next == cur {
			return 0, false // self-loop: broken state
		}
		cur = next
	}
	return 0, false // count exceeded: routing loop
}
