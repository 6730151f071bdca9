package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
)

// TestPartitionQuality bounds the partitioner's load balance: no region
// may hold more than twice the mean node count, and with more than one
// region the cut must actually produce cross links with a positive
// lookahead. Checked across seeds and shapes, including the full
// E16-scale manifest (cheap: no network is built).
func TestPartitionQuality(t *testing.T) {
	cases := []struct {
		spec    string
		regions []int
	}{
		{"transitstub:gw=8,stubs=2,hosts=1", []int{2, 4, 8}},
		{"transitstub:gw=12,stubs=3,hosts=2,mix=1", []int{2, 4}},
		{"waxman:gw=16,hosts=1", []int{2, 4}},
		{"transitstub:gw=250,stubs=7,hosts=1", []int{8}}, // E16 scale
	}
	for _, tc := range cases {
		spec, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, regions := range tc.regions {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/r%d/seed%d", tc.spec, regions, seed), func(t *testing.T) {
					m := ManifestOnly(spec, seed)
					p := PartitionManifest(spec, m, regions, seed)
					if p.Regions != regions {
						t.Fatalf("regions clamped: got %d want %d", p.Regions, regions)
					}
					loads := p.RegionLoads()
					total := 0
					for r, n := range loads {
						if n == 0 {
							t.Errorf("region %d is empty", r)
						}
						total += n
					}
					if total != len(m.NodeDefs) {
						t.Fatalf("loads sum %d != %d nodes", total, len(m.NodeDefs))
					}
					mean := float64(total) / float64(regions)
					for r, n := range loads {
						if float64(n) > 2*mean {
							t.Errorf("region %d load %d exceeds 2x mean %.1f (loads %v)",
								r, n, mean, loads)
						}
					}
					if regions > 1 {
						if p.CrossLinks == 0 {
							t.Error("multi-region partition with no cross links")
						}
						if p.LookaheadUS <= 0 {
							t.Errorf("lookahead %dus not positive", p.LookaheadUS)
						}
					}
					// Cross nets must be p2p trunks with both ends in
					// different regions; intra nets must be unanimous.
					attached := make(map[string][]int)
					for i, nd := range m.NodeDefs {
						for _, n := range nd.Nets {
							attached[n] = append(attached[n], i)
						}
					}
					for i, nf := range m.NetDefs {
						nodes := attached[nf.Name]
						if p.NetRegions[i] >= 0 {
							for _, n := range nodes {
								if p.NodeRegions[n] != p.NetRegions[i] {
									t.Errorf("net %s marked intra region %d but node %s is in %d",
										nf.Name, p.NetRegions[i], m.NodeDefs[n].Name, p.NodeRegions[n])
								}
							}
							continue
						}
						if nf.Kind != "p2p" || len(nodes) != 2 {
							t.Errorf("cross net %s: kind %s, %d stations", nf.Name, nf.Kind, len(nodes))
						}
						if p.NodeRegions[nodes[0]] == p.NodeRegions[nodes[1]] {
							t.Errorf("cross net %s has both ends in region %d", nf.Name, p.NodeRegions[nodes[0]])
						}
					}
				})
			}
		}
	}
}

// TestPartitionDeterminism pins the partition as a pure function of
// (spec, seed, regions): byte-identical JSON across repeated calls, and
// different under a different seed (the rotation moves the cut).
func TestPartitionDeterminism(t *testing.T) {
	spec, err := ParseSpec("transitstub:gw=8,stubs=2,hosts=1")
	if err != nil {
		t.Fatal(err)
	}
	enc := func(seed int64) []byte {
		m := ManifestOnly(spec, seed)
		p := PartitionManifest(spec, m, 4, seed)
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := enc(7), enc(7)
	if string(a) != string(b) {
		t.Fatal("same (spec, seed) produced different partitions")
	}
	if string(enc(7)) == string(enc(8)) {
		t.Fatal("different seeds produced identical partitions — rotation not seeded")
	}
}

// TestShardedRoutesMatchOracle audits the installed cross-region
// routing state against the manifest's BFS oracle: for every host pair,
// the static route walk must deliver and cross exactly the BFS-optimal
// number of gateways, across both shapes and several seeds.
func TestShardedRoutesMatchOracle(t *testing.T) {
	for _, sp := range []string{"transitstub:gw=8,stubs=2,hosts=1", "waxman:gw=10,hosts=1"} {
		spec, err := ParseSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Shape, seed), func(t *testing.T) {
				s := GenerateSharded(spec, seed, 4, 1)
				m := s.Manifest
				hosts := m.HostNames()
				for _, from := range hosts {
					oracle := m.NetHops(from)
					for _, to := range hosts {
						want := oracle[m.nodeNets.row(m.NodeIndex(to))[0]]
						got, ok := s.PathHops(from, to)
						if want < 0 {
							if ok {
								t.Errorf("%s -> %s: delivered but BFS says unreachable", from, to)
							}
							continue
						}
						if !ok {
							t.Errorf("%s -> %s: route walk failed, BFS wants %d hops", from, to, want)
							continue
						}
						if got != want {
							t.Errorf("%s -> %s: %d gateway hops, BFS optimum %d", from, to, got, want)
						}
					}
				}
			})
		}
	}
}

// oldPathHops is the walk PathHops made before core.RouteHops crossed
// regions, kept as the reference the one walk is held to: it resolves
// each next hop through its own directory of every interface address
// and looks at the tables alone — neither interface state nor a cut
// medium.
func oldPathHops(s *Sharded, byAddr map[ipv4.Addr]string, from, to string) (int, bool) {
	if from == to {
		return 0, true
	}
	dst := s.Addr(to)
	cur := from
	for hops := 0; hops <= len(s.Manifest.NodeDefs); hops++ {
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
		next, ok := byAddr[via]
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

// TestPathHopsMatchesTheOldWalk holds PathHops — core's RouteHops since
// it learned to follow a cross trunk — to the walk it replaced, over
// every host pair of the internets TestShardedRoutesMatchOracle audits,
// at 1 and 4 regions. Then what the old walk could not see: with a cross
// trunk cut at either half the tables still point the way and the old
// walk still delivers; the forwarding plane would not, and the one walk
// says so — as it does for an origin whose interface is down, its own
// net included.
func TestPathHopsMatchesTheOldWalk(t *testing.T) {
	for _, sp := range []string{"transitstub:gw=8,stubs=2,hosts=1", "waxman:gw=10,hosts=1"} {
		spec, err := ParseSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, regions := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/regions%d/seed%d", spec.Shape, regions, seed), func(t *testing.T) {
					s := GenerateSharded(spec, seed, regions, 1)
					byAddr := make(map[ipv4.Addr]string)
					for _, nw := range s.Regions {
						for _, name := range nw.Nodes() {
							for _, ifc := range nw.Node(name).Interfaces() {
								byAddr[ifc.Addr] = name
							}
						}
					}
					hosts := s.Manifest.HostNames()
					crossing := 0
					for _, from := range hosts {
						for _, to := range hosts {
							want, wantOK := oldPathHops(s, byAddr, from, to)
							if got, ok := s.PathHops(from, to); got != want || ok != wantOK || !ok {
								t.Errorf("%s -> %s: (%d, %v), the old walk (%d, %v); both should deliver", from, to, got, ok, want, wantOK)
							}
							if s.Net(from) != s.Net(to) {
								crossing++
							}
						}
					}
					if (crossing > 0) != (regions > 1) {
						t.Fatalf("%d host pairs span regions at %d regions", crossing, regions)
					}

					// A cross trunk is a pair of halves, and a frame is lost
					// while either is down: cut one side of every trunk, then
					// the other.
					var halves []phys.Medium
					for i, nf := range s.Manifest.NetDefs {
						if s.Manifest.Partition.NetRegions[i] < 0 {
							halves = append(halves, s.Regions[0].Media(nf.Name)...)
						}
					}
					for half := 0; half < 2; half++ {
						for i, b := range halves {
							b.SetDown(i%2 == half)
						}
						for _, from := range hosts {
							for _, to := range hosts {
								_, ok := s.PathHops(from, to)
								if _, old := oldPathHops(s, byAddr, from, to); !old {
									t.Errorf("%s -> %s: the old walk saw the cut", from, to)
								}
								if spans := s.Net(from) != s.Net(to); spans && ok {
									t.Errorf("%s -> %s: delivered across a cut trunk (halves %d down)", from, to, half)
								}
							}
						}
					}
					for _, b := range halves {
						b.SetDown(false)
					}

					// An origin whose interface is down sends nothing, not
					// even to its own net.
					from, to := hosts[0], hosts[len(hosts)-1]
					nic := s.Net(from).Node(from).Interface(0).NIC
					nic.SetUp(false)
					for _, dst := range []string{from, to} {
						stub := s.Net(dst).Node(dst).Interface(0).Prefix
						if _, v := s.Net(from).RouteHops(from, stub, 0); v != core.RouteDead {
							t.Errorf("%s -> %s with %s's interface down: %v, want dead", from, dst, from, v)
						}
					}
					nic.SetUp(true)
					if _, ok := s.PathHops(from, to); !ok {
						t.Errorf("%s -> %s: not delivered once the interface is back up", from, to)
					}
				})
			}
		}
	}
}

// censusView renders what a census says of each node: the members of
// its component (or that it is down) and the prefixes it reaches.
func censusView(c *core.Census, names []string) map[string]string {
	members := make(map[int][]string)
	for _, n := range names {
		members[c.ComponentOf(n)] = append(members[c.ComponentOf(n)], n)
	}
	view := make(map[string]string, len(names))
	for _, n := range names {
		comp := "down"
		if id := c.ComponentOf(n); id >= 0 {
			comp = "with " + strings.Join(members[id], " ")
		}
		view[n] = fmt.Sprintf("%s, reaching %v", comp, c.Prefixes(n))
	}
	return view
}

// TestCensusAtAnyRegionCount holds the reachability census taken on any
// region of the 1- and 4-region builds to the serial build's census:
// the same components as sets of node names, the same Down, Largest and
// Total, the same prefixes reached per node, and the same AllPrefixes —
// intact, with a gateway that owns a cross trunk crashed, and with one
// cross trunk, then every one, cut at each half in turn.
func TestCensusAtAnyRegionCount(t *testing.T) {
	for _, sp := range []string{"transitstub:gw=8,stubs=2,hosts=1", "waxman:gw=10,hosts=1"} {
		spec, err := ParseSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", spec.Shape, seed), func(t *testing.T) {
				serial, _ := Generate(spec, seed)
				s1, s4 := GenerateSharded(spec, seed, 1, 1), GenerateSharded(spec, seed, 4, 1)
				// A fault goes to each build through the handle of the node
				// it hits, so a cut trunk is cut in that node's region only.
				builds := []interface{ Net(string) *core.Network }{serial, s1, s4}
				names := serial.Nodes()

				var cross []string
				ends := make(map[string][]string)
				for i, nf := range s4.Manifest.NetDefs {
					if s4.Manifest.Partition.NetRegions[i] < 0 {
						cross = append(cross, nf.Name)
					}
				}
				for _, nd := range s4.Manifest.NodeDefs {
					for _, n := range nd.Nets {
						ends[n] = append(ends[n], nd.Name)
					}
				}
				if len(cross) == 0 {
					t.Fatal("no cross trunk at 4 regions")
				}

				check := func(state string) {
					t.Helper()
					want := serial.PartitionCensus()
					wantView, wantPrefixes := censusView(want, names), serial.AllPrefixes()
					for _, s := range []*Sharded{s1, s4} {
						for r, nw := range s.Regions {
							got := nw.PartitionCensus()
							if got.Components != want.Components || got.Down != want.Down || got.Largest != want.Largest || got.Total != want.Total {
								t.Errorf("%s, %d regions, census on region %d: %d components, %d down, largest %d of %d; serial %d, %d, %d of %d",
									state, len(s.Regions), r, got.Components, got.Down, got.Largest, got.Total,
									want.Components, want.Down, want.Largest, want.Total)
							}
							gotView := censusView(got, names)
							for _, n := range names {
								if gotView[n] != wantView[n] {
									t.Errorf("%s, %d regions, census on region %d: %s is %s; serial: %s", state, len(s.Regions), r, n, gotView[n], wantView[n])
									break
								}
							}
							if ps := nw.AllPrefixes(); !slices.Equal(ps, wantPrefixes) {
								t.Errorf("%s, %d regions, region %d: AllPrefixes %v, serial %v", state, len(s.Regions), r, ps, wantPrefixes)
							}
						}
					}
				}

				check("intact")
				gw := ends[cross[0]][0]
				for _, b := range builds {
					b.Net(gw).CrashNode(gw)
				}
				check(gw + " crashed")
				for _, b := range builds {
					b.Net(gw).RestoreNode(gw)
				}
				for half := 0; half < 2; half++ {
					for _, trunks := range [][]string{cross[:1], cross} {
						cut := func(down bool) {
							for _, tr := range trunks {
								end := ends[tr][half]
								for _, b := range builds {
									b.Net(end).Medium(tr).SetDown(down) // this end's half only
								}
							}
						}
						cut(true)
						check(fmt.Sprintf("%d of %d cross trunks cut at %s's end", len(trunks), len(cross), ends[trunks[0]][half]))
						cut(false)
					}
				}
				check("healed")
			})
		}
	}
}

// TestBuildersShareGraphNamesPrefixesMedia holds Generate and
// GenerateSharded to one wiring, for every shape and the E12 reference
// internet at 1 and 4 regions: the marshalled manifests are equal (less
// the partition a sharded build records), the same nodes are live, and
// every node has the same interfaces in the same order — address,
// prefix, link address and NIC name — over media with the same
// parameters as in the serial build.
func TestBuildersShareGraphNamesPrefixesMedia(t *testing.T) {
	wiring := func(nw *core.Network, node string) []string {
		var out []string
		for _, ifc := range nw.Node(node).Interfaces() {
			out = append(out, fmt.Sprintf("if%d %s in %s, link address %v, nic %s",
				ifc.Index, ifc.Addr, ifc.Prefix, ifc.NIC.Addr(), ifc.NIC.Name()))
		}
		return out
	}
	for _, spec := range []string{
		"line:gw=8", "ring:gw=8", "tree:gw=13,degree=3",
		"transitstub:gw=8,stubs=2", "waxman:gw=14", DefaultSpec().String(),
	} {
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, regions := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/r%d", spec, regions), func(t *testing.T) {
				nw, m := Generate(sp, 5)
				s := GenerateSharded(sp, 5, regions, 1)
				if s.Manifest.Partition.Regions != regions {
					t.Fatalf("built %d regions, want %d", s.Manifest.Partition.Regions, regions)
				}
				unpartitioned := *s.Manifest
				unpartitioned.Partition = nil
				want, _ := json.Marshal(m)
				if got, _ := json.Marshal(&unpartitioned); !bytes.Equal(got, want) {
					t.Fatal("the two builders' manifests differ")
				}
				var live []string
				for _, r := range s.Regions {
					live = append(live, r.Nodes()...)
				}
				serial := nw.Nodes()
				slices.Sort(live)
				slices.Sort(serial)
				if !slices.Equal(live, serial) {
					t.Fatalf("sharded nodes %v, serial %v", live, serial)
				}
				for _, nd := range m.NodeDefs {
					rn := s.Net(nd.Name)
					if got, want := wiring(rn, nd.Name), wiring(nw, nd.Name); !slices.Equal(got, want) {
						t.Errorf("%s is wired\n\t%s\nsharded,\n\t%s\nserial", nd.Name,
							strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
					}
					// Every net, seen from each node on it (a cross trunk
					// has a half in each end's region).
					for _, n := range nd.Nets {
						a, b := nw.Medium(n), rn.Medium(n)
						if rn.Prefix(n) != nw.Prefix(n) || a.MTU() != b.MTU() || a.Loss() != b.Loss() {
							t.Errorf("net %s at %s: %v mtu %d loss %g sharded, %v mtu %d loss %g serial", n, nd.Name,
								rn.Prefix(n), b.MTU(), b.Loss(), nw.Prefix(n), a.MTU(), a.Loss())
						}
					}
				}
			})
		}
	}
}

// TestShardedBuildIndependentOfWorkers pins the build — manifest,
// partition, addresses and installed routes — as identical at any
// worker count: workers buy wall-clock parallelism and nothing else.
func TestShardedBuildIndependentOfWorkers(t *testing.T) {
	spec, err := ParseSpec("transitstub:gw=8,stubs=2,hosts=1")
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) (*Sharded, []byte) {
		s := GenerateSharded(spec, 3, 4, workers)
		b, err := json.Marshal(s.Manifest)
		if err != nil {
			t.Fatal(err)
		}
		return s, b
	}
	s1, m1 := build(1)
	s4, m4 := build(4)
	if string(m1) != string(m4) {
		t.Fatal("manifest differs between worker counts")
	}
	hosts := s1.Manifest.HostNames()
	for _, from := range hosts {
		for _, to := range hosts {
			if s1.Addr(to) != s4.Addr(to) {
				t.Fatalf("%s: address differs between worker counts", to)
			}
			h1, ok1 := s1.PathHops(from, to)
			h4, ok4 := s4.PathHops(from, to)
			if h1 != h4 || ok1 != ok4 {
				t.Fatalf("%s -> %s: path (%d,%v) vs (%d,%v) between worker counts",
					from, to, h1, ok1, h4, ok4)
			}
		}
	}
}

// TestShardedDelivery moves real datagrams across region boundaries:
// a host in one region sends to hosts in every other region, the group
// runs lock-step epochs, and every datagram must arrive — the live
// counterpart of the static route audit.
func TestShardedDelivery(t *testing.T) {
	spec, err := ParseSpec("transitstub:gw=8,stubs=2,hosts=1")
	if err != nil {
		t.Fatal(err)
	}
	s := GenerateSharded(spec, 1, 4, 2)
	hosts := s.Manifest.HostNames()
	src := hosts[0]

	var targets []string
	seen := map[*core.Network]bool{s.Net(src): true}
	for _, h := range hosts {
		if r := s.Net(h); !seen[r] {
			seen[r] = true
			targets = append(targets, h)
		}
	}
	if len(targets) == 0 {
		t.Fatal("no cross-region host targets")
	}
	got := make(map[string]int)
	for _, dst := range targets {
		dst := dst
		s.Net(dst).Node(dst).RegisterProtocol(200, func(h ipv4.Header, p []byte) { got[dst]++ })
	}
	payload := make([]byte, 256)
	for i := 0; i < 3; i++ {
		for _, dst := range targets {
			hdr := ipv4.Header{Dst: s.Addr(dst), Proto: 200}
			if err := s.Net(src).Node(src).Send(hdr, payload); err != nil {
				t.Fatalf("send to %s: %v", dst, err)
			}
		}
		s.RunFor(200 * time.Millisecond)
	}
	for _, dst := range targets {
		if got[dst] != 3 {
			t.Errorf("%s: delivered %d of 3 from another region", dst, got[dst])
		}
	}
}

// BenchmarkShardedForward measures per-datagram cost of the sharded
// forwarding hot path: one datagram from a stub host across its region,
// through a boundary trunk, to a host in another region, driving the
// epoch loop and the barrier exchange each iteration. benchguard pins
// this at 0 allocs/op — the pooled datagram path, the boundary
// crossing free list and the serial epoch loop must all hold.
func BenchmarkShardedForward(b *testing.B) {
	spec, err := ParseSpec("transitstub:gw=8,stubs=2,hosts=1")
	if err != nil {
		b.Fatal(err)
	}
	s := GenerateSharded(spec, 1, 4, 1)
	hosts := s.Manifest.HostNames()
	src := hosts[0]
	dst := ""
	for _, h := range hosts {
		if s.Net(h) != s.Net(src) {
			dst = h
			break
		}
	}
	if dst == "" {
		b.Fatal("no cross-region host pair")
	}
	var delivered uint64
	s.Net(dst).Node(dst).RegisterProtocol(200, func(h ipv4.Header, p []byte) { delivered++ })
	payload := make([]byte, 512)
	hdr := ipv4.Header{Dst: s.Addr(dst), Proto: 200}
	step := 100 * time.Millisecond

	for i := 0; i < 64; i++ {
		if err := s.Net(src).Node(src).Send(hdr, payload); err != nil {
			b.Fatal(err)
		}
		s.RunFor(step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Net(src).Node(src).Send(hdr, payload)
		s.RunFor(step)
	}
	b.StopTimer()
	if delivered != uint64(64+b.N) {
		b.Fatalf("delivered %d of %d", delivered, 64+b.N)
	}
}
