package core_test

import (
	"fmt"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/stack"
	"darpanet/internal/topo"
)

// aggregateSpecs are the random internets the aggregation tests build:
// both shapes whose backbone a 4-region partition can cut, with mixed
// media.
var aggregateSpecs = []topo.Spec{
	{Shape: topo.TransitStub, Gateways: 8, StubsPer: 3, Hosts: 2, Mix: true},
	{Shape: topo.Waxman, Gateways: 24, Alpha: 0.25, Beta: 0.4, Hosts: 1, Mix: true},
}

// setUp takes every interface of node up or down.
func setUp(n *stack.Node, up bool) {
	for _, ifc := range n.Interfaces() {
		ifc.NIC.SetUp(up)
	}
}

// perNetOnly fails t unless every static route nw's node holds is to a
// net or a default (the generator gives each host one): the table of a
// route per net, with no block.
func perNetOnly(t *testing.T, nw *core.Network, name string) {
	t.Helper()
	nets := map[ipv4.Prefix]bool{{}: true}
	for _, p := range nw.AllPrefixes() {
		nets[p] = true
	}
	for _, r := range nw.Node(name).Table.Routes() {
		if r.Source == stack.SourceStatic && !nets[r.Prefix] {
			t.Fatalf("%s holds %v, a static route to no net", name, r)
		}
	}
}

// TestBlocksForwardLikePerNetRoutes is the aggregation's exactness
// check. The cross-region oracle's tables (collapsed defaults and
// same-next-hop blocks) and the serial build's route per net must answer
// a lookup of the first, middle and last address of every net, from
// every node, with the same next hop, interface and source, or both
// find no route — on the intact internet and with each gateway's
// interfaces downed in turn, so that every block out of a down
// interface falls through as the net's own route does.
func TestBlocksForwardLikePerNetRoutes(t *testing.T) {
	for _, sp := range aggregateSpecs {
		for _, seed := range []int64{1, 2, 3} {
			for _, regions := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/seed%d/r%d", sp.Shape, seed, regions), func(t *testing.T) {
					agg := topo.GenerateSharded(sp, seed, regions, 1)
					serial, m := topo.Generate(sp, seed)
					serial.InstallStaticRoutes()

					nets := map[ipv4.Prefix]bool{{}: true}
					for _, p := range serial.AllPrefixes() {
						nets[p] = true
					}
					var names []string
					aggRoutes, perNet, blocks := 0, 0, 0
					for _, nd := range m.NodeDefs {
						names = append(names, nd.Name)
						for _, r := range agg.Net(nd.Name).Node(nd.Name).Table.Routes() {
							if !nets[r.Prefix] {
								blocks++
							}
						}
						aggRoutes += agg.Net(nd.Name).Node(nd.Name).Table.Len()
						perNet += serial.Node(nd.Name).Table.Len()
						perNetOnly(t, serial, nd.Name)
					}
					if aggRoutes >= perNet || blocks == 0 {
						t.Fatalf("aggregated tables hold %d routes (%d blocks wider than a net), per-net ones %d", aggRoutes, blocks, perNet)
					}
					sameLookups(t, serial.AllPrefixes(), names, m.GatewayNames(), agg.Net, func(string) *core.Network { return serial })
				})
			}
		}
	}
}

// TestOracleRerunLeavesNoStaleBlock re-runs the oracle over an
// aggregated internet both ways. A second cross-region run installs the
// same tables; the per-network entry run on one region afterwards must
// retract every block and collapsed default, leaving the serial build's
// tables route for route.
func TestOracleRerunLeavesNoStaleBlock(t *testing.T) {
	for _, sp := range aggregateSpecs {
		for _, regions := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/r%d", sp.Shape, regions), func(t *testing.T) {
				s := topo.GenerateSharded(sp, 1, regions, 1)
				serial, m := topo.Generate(sp, 1)
				serial.InstallStaticRoutes()
				tables := func() map[string]string {
					out := map[string]string{}
					for _, nd := range m.NodeDefs {
						out[nd.Name] = s.Net(nd.Name).Node(nd.Name).Table.String()
					}
					return out
				}
				first := tables()
				core.InstallStaticRoutesAcross(s.Regions)
				for name, tbl := range tables() {
					if tbl != first[name] {
						t.Fatalf("%s after a second cross-region run:\n%sfirst run:\n%s", name, tbl, first[name])
					}
				}
				s.Regions[len(s.Regions)-1].InstallStaticRoutes()
				for name, tbl := range tables() {
					perNetOnly(t, s.Net(name), name)
					if want := serial.Node(name).Table.String(); tbl != want {
						t.Fatalf("%s after the per-network oracle:\n%sserial build:\n%s", name, tbl, want)
					}
				}
			})
		}
	}
}

// TestNestedNetsKeepARoutePerNet: blocks are exact only over disjoint
// nets, so where one net's prefix holds another's the cross-region oracle
// does not aggregate, and every node holds the per-network oracle's
// table, route for route. Gateway m reaches each of three LANs, one of
// them a /16 around the other two, through a different neighbour; each
// gi reaches every net but its own two through m, and would otherwise
// collapse to a default.
func TestNestedNetsKeepARoutePerNet(t *testing.T) {
	build := func() *core.Network {
		nw := core.New(1)
		cfg := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
		for i, lan := range []string{"10.1.0.0/16", "10.1.5.0/24", "10.1.7.0/24"} {
			nw.AddNet(fmt.Sprintf("lan%d", i), lan, core.LAN, cfg)
			nw.AddNet(fmt.Sprintf("n%d", i), fmt.Sprintf("10.9.%d.0/24", i), core.P2P, cfg)
			nw.AddGateway(fmt.Sprintf("g%d", i), fmt.Sprintf("lan%d", i), fmt.Sprintf("n%d", i))
		}
		nw.AddGateway("m", "n0", "n1", "n2")
		return nw
	}
	across, perNet := build(), build()
	core.InstallStaticRoutesAcross([]*core.Network{across})
	perNet.InstallStaticRoutes()
	for _, name := range perNet.Nodes() {
		got, want := across.Node(name).Table.String(), perNet.Node(name).Table.String()
		if got != want || across.Node(name).Table.Len() != 6 {
			t.Fatalf("%s across the regions:\n%sper network:\n%s", name, got, want)
		}
		if agg := across.AggRoutes(name); len(agg) != 0 {
			t.Fatalf("%s recorded aggregates %v over nested nets", name, agg)
		}
	}
}

// TestOperatorDefaultElsewhereGetsBlocks: host h reaches every net it is
// not on through gateway ga, but its operator default points at gb, the
// other gateway on its LAN. The aggregating oracle must not collapse h
// to a second default: h keeps the operator's and covers its run with
// blocks through ga, as the reference oracle does.
func TestOperatorDefaultElsewhereGetsBlocks(t *testing.T) {
	build := func() *core.Network {
		nw := core.New(1)
		cfg := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
		nw.AddNet("lan", "10.1.1.0/24", core.LAN, cfg)
		nw.AddNet("trunk", "10.1.2.0/24", core.P2P, cfg)
		nw.AddNet("far", "10.1.3.0/24", core.LAN, cfg)
		nw.AddGateway("ga", "lan", "trunk")
		nw.AddGateway("gb", "lan")
		nw.AddGateway("r", "trunk", "far")
		nw.AddHost("h", "lan")
		nw.SetDefaultRoute("h", "gb")
		return nw
	}
	nw, ref := build(), build()
	core.InstallStaticRoutesAcross([]*core.Network{nw})
	core.InstallStaticRoutesReference([]*core.Network{ref}, true)
	sameTables(t, "aggregated", nw.Nodes(), func(string) *core.Network { return nw }, func(string) *core.Network { return ref })

	h, ga, gb := nw.Node("h"), nw.Addr("ga"), nw.Addr("gb")
	var defaults []stack.Route
	for _, r := range h.Table.Routes() {
		if r.Prefix.Bits == 0 {
			defaults = append(defaults, r)
		}
	}
	if len(defaults) != 1 || defaults[0].Via != gb {
		t.Fatalf("h holds defaults %v, want only the operator's via gb (%v)\n%s", defaults, gb, h.Table.String())
	}
	if agg := nw.AggRoutes("h"); fmt.Sprint(agg) != "[10.1.2.0/23]" {
		t.Fatalf("h recorded aggregates %v, want the block [10.1.2.0/23]", agg)
	}
	for _, net := range []string{"trunk", "far"} {
		if r, ok := h.Table.Lookup(nw.Prefix(net).Host(9)); !ok || r.Via != ga || r.Prefix.Bits == 0 {
			t.Fatalf("h routes toward %s as %v,%v; want a block via ga (%v)", net, r, ok, ga)
		}
	}
}

// TestEveryRegionAnswersForEveryNode: on a 4-region build every region's
// Node, Addr, UDP and TCP answer for every host with the host's own —
// one transport per host, made in the host's region whichever region
// asked first.
func TestEveryRegionAnswersForEveryNode(t *testing.T) {
	s := topo.GenerateSharded(aggregateSpecs[0], 1, 4, 1)
	if len(s.Regions) != 4 {
		t.Fatalf("built %d regions, want 4", len(s.Regions))
	}
	for i, h := range s.Manifest.HostNames() {
		home, first := s.Net(h), s.Regions[i%4]
		u, c := first.UDP(h), first.TCP(h)
		for r, nw := range s.Regions {
			if nw.UDP(h) != u || nw.TCP(h) != c {
				t.Fatalf("region %d answers for %s with another transport than region %d made", r, h, i%4)
			}
			if nw.Node(h) != home.Node(h) || nw.Addr(h) != home.Addr(h) {
				t.Fatalf("region %d answers for %s with another node", r, h)
			}
		}
	}
}
