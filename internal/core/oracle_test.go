package core_test

import (
	"slices"
	"testing"

	"darpanet/internal/core"
	"darpanet/internal/exp"
	"darpanet/internal/ipv4"
	"darpanet/internal/topo"
)

// TestOracleEntriesAgree pins the two static-oracle entries to one
// body: the one-region entry (nw.InstallStaticRoutes) and the N-region
// entry handed that same network alone, collapse off, must leave every
// node of the spur internet with the same table — and a second run of
// either must retract and reinstall to the same state.
func TestOracleEntriesAgree(t *testing.T) {
	one, many := spurNet(1), spurNet(1)
	one.InstallStaticRoutes()
	core.InstallStaticRoutesExact([]*core.Network{many})
	for round := 1; round <= 2; round++ {
		for _, name := range one.Nodes() {
			a, b := one.Node(name).Table.String(), many.Node(name).Table.String()
			if a != b {
				t.Errorf("round %d, %s: entries disagree\none-region:\n%sN-region over one:\n%s", round, name, a, b)
			}
			if one.Node(name).Table.Len() < 3 {
				t.Errorf("%s holds %d routes: the oracle installed nothing to compare", name, one.Node(name).Table.Len())
			}
		}
		one.InstallStaticRoutes()
		core.InstallStaticRoutesExact([]*core.Network{many})
	}
}

// every returns the indices of n items, or, past k of them, k indices
// spread evenly over all n.
func every(n, k int) []int {
	out := make([]int, 0, min(n, k))
	for i := range min(n, k) {
		out = append(out, i*n/min(n, k))
	}
	return out
}

// sameTables fails t unless every named node holds the same table, route
// for route, and the same record of aggregates, in install order, on a
// (the one-sweep oracle's) and b (the reference's).
func sameTables(t *testing.T, when string, names []string, a, b func(string) *core.Network) {
	t.Helper()
	for _, name := range names {
		ta, tb := a(name).Node(name).Table, b(name).Node(name).Table
		// The sorted routes are what String renders; compared as values,
		// they are formatted only when they differ.
		if !slices.Equal(ta.Routes(), tb.Routes()) || ta.Len() != tb.Len() {
			t.Fatalf("%s: %s holds\n%sthe reference oracle gives it\n%s", when, name, ta.String(), tb.String())
		}
		if ga, gb := a(name).AggRoutes(name), b(name).AggRoutes(name); !slices.Equal(ga, gb) {
			t.Fatalf("%s: %s recorded aggregates %v, the reference oracle %v", when, name, ga, gb)
		}
	}
}

// sameLookups fails t unless a lookup of the first, middle and last
// address of every net answers alike from each named node of a and b —
// the same next hop, interface and source, or no route on both — on the
// intact internet and with each of the gateways' interfaces downed in
// turn, so that every route out of a down interface on a falls through
// as it does on b.
func sameLookups(t *testing.T, prefixes []ipv4.Prefix, names, gateways []string, a, b func(string) *core.Network) {
	t.Helper()
	var dsts []ipv4.Addr
	for _, p := range prefixes {
		size := ipv4.Addr(1) << (32 - p.Bits)
		dsts = append(dsts, p.Addr, p.Addr+size/2, p.Addr+size-1)
	}
	compare := func(when string) {
		t.Helper()
		for _, name := range names {
			na, nb := a(name).Node(name), b(name).Node(name)
			for _, d := range dsts {
				got, gok := na.Table.Lookup(d)
				want, wok := nb.Table.Lookup(d)
				if gok != wok || got.Via != want.Via || got.IfIndex != want.IfIndex || got.Source != want.Source {
					t.Fatalf("%s: %s looks up %v as %v,%v; want %v,%v", when, name, d, got, gok, want, wok)
				}
			}
		}
	}
	compare("intact")
	for _, g := range gateways {
		setUp(a(g).Node(g), false)
		setUp(b(g).Node(g), false)
		compare(g + " down")
		setUp(a(g).Node(g), true)
		setUp(b(g).Node(g), true)
	}
}

// matchReference is the body of FuzzStaticRoutesMatchReference.
func matchReference(t *testing.T, sp topo.Spec, seed int64, regions int) {
	// Aggregated: GenerateSharded runs the one-sweep oracle; on the
	// second build the reference retracts its routes and installs its own.
	a := topo.GenerateSharded(sp, seed, regions, 1)
	b := topo.GenerateSharded(sp, seed, regions, 1)
	core.InstallStaticRoutesReference(b.Regions, true)
	m := a.Manifest
	names := make([]string, len(m.NodeDefs))
	for i, nd := range m.NodeDefs {
		names[i] = nd.Name
	}
	sameTables(t, "aggregated", names, a.Net, b.Net)

	// Downing every gateway in turn and looking up from every node is
	// quadratic in the internet; past a hundred nodes, an even sample
	// of each is looked up.
	gateways, prefixes := m.GatewayNames(), a.Regions[0].AllPrefixes()
	small := len(names) <= 100
	lookers, downs := names, gateways
	if !small {
		lookers, downs = nil, nil
		for _, i := range every(len(names), 32) {
			lookers = append(lookers, names[i])
		}
		for _, i := range every(len(gateways), 4) {
			downs = append(downs, gateways[i])
		}
	}
	sameLookups(t, prefixes, lookers, downs, a.Net, b.Net)
	if !small {
		return // a table per net on every node of a large internet is too large to build twice
	}

	core.InstallStaticRoutesExact(a.Regions)
	core.InstallStaticRoutesReference(b.Regions, false)
	sameTables(t, "per net", names, a.Net, b.Net)

	// netlab's path: a serial network under the per-network oracle,
	// which recomputes when a node joins another LAN.
	sa, _ := topo.Generate(sp, seed)
	sb, _ := topo.Generate(sp, seed)
	sa.InstallStaticRoutes()
	sb.InstallStaticRoutes()
	core.InstallStaticRoutesReference([]*core.Network{sb}, false)
	var lans []string
	for _, nd := range m.NetDefs {
		if nd.Kind == "lan" {
			lans = append(lans, nd.Name)
		}
	}
	if len(lans) == 0 {
		return
	}
	node, lan := names[int(uint64(seed)%uint64(len(names)))], lans[int(uint64(seed)/7%uint64(len(lans)))]
	if slices.Contains(m.NodeDefs[m.NodeIndex(node)].Nets, lan) {
		return
	}
	sa.AttachNodeToNet(node, lan)
	sb.AttachNodeToNet(node, lan)
	core.InstallStaticRoutesReference([]*core.Network{sb}, false)
	serial := func(nw *core.Network) func(string) *core.Network { return func(string) *core.Network { return nw } }
	sameTables(t, node+" joins "+lan, names, serial(sa), serial(sb))
	sameLookups(t, sa.AllPrefixes(), names, nil, serial(sa), serial(sb))
}

// FuzzStaticRoutesMatchReference holds the one-sweep oracle to the
// two-sweep reference it replaced, on generated internets of every
// shape, cut into 1 to 8 regions: every node's table, route for route,
// and its record of aggregates must match, aggregated and per net, and
// again after a node joins another LAN on a serial network under the
// per-network oracle, where the oracle recomputes; and so must the
// lookups of every net from every node, intact and with each gateway
// down. shape, size and knob pick the spec (knob is a tree's degree or
// the stub gateways per transit gateway, less one); past E16's 2000
// gateways an input is skipped.
func FuzzStaticRoutesMatchReference(f *testing.F) {
	shapes := []topo.Shape{topo.Line, topo.Ring, topo.Tree, topo.TransitStub, topo.Waxman}
	add := func(sp topo.Spec, seed int64, regions uint8) {
		f.Add(uint8(slices.Index(shapes, sp.Shape)), uint8(sp.Gateways), uint8(max(sp.Degree, sp.StubsPer)-1), uint8(sp.Hosts), sp.Mix, seed, regions)
	}
	for _, sp := range aggregateSpecs {
		add(sp, 1, 1)
		add(sp, 2, 4)
	}
	add(exp.E16Spec(), 1988, 8)
	// Every gateway of a line or a tree is a cut vertex: stub domains
	// nest to the graph's depth, and the DFS meets them end to end.
	add(topo.Spec{Shape: topo.Line, Gateways: 30, Hosts: 1}, 3, 1)
	add(topo.Spec{Shape: topo.Line, Gateways: 12, Hosts: 2, Mix: true}, 5, 3)
	add(topo.Spec{Shape: topo.Tree, Gateways: 40, Degree: 2, Hosts: 1}, 7, 1)
	add(topo.Spec{Shape: topo.Tree, Gateways: 31, Degree: 2, Hosts: 2, Mix: true}, 9, 4)
	f.Fuzz(func(t *testing.T, shape, size, knob, hosts uint8, mix bool, seed int64, regions uint8) {
		sp := topo.Spec{Shape: shapes[int(shape)%len(shapes)], Gateways: max(1, int(size)), Hosts: int(hosts % 4), Mix: mix}
		switch sp.Shape {
		case topo.Tree:
			sp.Degree = 1 + int(knob%4)
		case topo.TransitStub:
			sp.StubsPer = 1 + int(knob%8)
		case topo.Waxman:
			sp.Alpha, sp.Beta = 0.25, 0.4
		}
		if sp.Gateways*(1+sp.StubsPer) > 2000 {
			t.Skip("larger than E16's internet")
		}
		matchReference(t, sp, seed, 1+int(regions%8))
	})
}
