package core_test

import (
	"fmt"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/phys"
)

// stubLab wires the hand-built internets of the anchor cases: a ring of
// transit gateways t0, t1, … with stub domains hung off them. Every net
// is a /24 numbered in creation order, so nets created together are
// consecutive in the oracle's sorted-prefix sweep, as a transit
// gateway's stub nets are in a generated internet.
type stubLab struct {
	*core.Network
	nets int
}

// newStubLab builds the ring of k transit gateways, each on the trunk to
// its neighbour either side.
func newStubLab(k int) *stubLab {
	l := &stubLab{Network: core.New(1)}
	for i := range k {
		l.net(fmt.Sprintf("r%d", i), core.P2P)
	}
	for i := range k {
		l.AddGateway(fmt.Sprintf("t%d", i), fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", (i+k-1)%k))
	}
	return l
}

// net adds the next /24 and returns its name.
func (l *stubLab) net(name string, kind core.NetKind) string {
	l.nets++
	l.AddNet(name, fmt.Sprintf("10.1.%d.0/24", l.nets), kind, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	return name
}

// stub hangs stub gateway name off gw: an access trunk a-name, which gw
// joins before name does when gwFirst and after it otherwise, and a LAN
// lan-name that name owns with one host, h-name.
func (l *stubLab) stub(gw, name string, gwFirst bool) {
	a := l.net("a-"+name, core.P2P)
	if gwFirst {
		l.AttachNodeToNet(gw, a)
	}
	lan := l.net("lan-"+name, core.LAN)
	l.AddGateway(name, a, lan)
	if !gwFirst {
		l.AttachNodeToNet(gw, a)
	}
	l.AddHost("h-"+name, lan)
}

// matchesReferenceOn holds the oracle to the reference oracle on the
// internet build makes: every node's table, route for route, and its
// record of aggregates, aggregated and per net, and every node's lookups
// of every net, intact and with each gateway down. With join (a node and
// a LAN) it then holds them again after AttachNodeToNet joins the two,
// aggregated and under the per-network oracle, which recomputes.
func matchesReferenceOn(t *testing.T, build func() *core.Network, join ...string) {
	t.Helper()
	a, b := build(), build()
	one := func(nw *core.Network) func(string) *core.Network { return func(string) *core.Network { return nw } }
	names := a.Nodes()
	var gateways []string
	for _, name := range names {
		if a.Node(name).Forwarding {
			gateways = append(gateways, name)
		}
	}
	check := func(when string) {
		t.Helper()
		core.InstallStaticRoutesAcross([]*core.Network{a})
		core.InstallStaticRoutesReference([]*core.Network{b}, true)
		sameTables(t, when+", aggregated", names, one(a), one(b))
		sameLookups(t, a.AllPrefixes(), names, gateways, one(a), one(b))
		a.InstallStaticRoutes()
		core.InstallStaticRoutesReference([]*core.Network{b}, false)
		sameTables(t, when+", per net", names, one(a), one(b))
		sameLookups(t, a.AllPrefixes(), names, gateways, one(a), one(b))
	}
	check("built")
	if len(join) == 2 {
		a.AttachNodeToNet(join[0], join[1])
		b.AttachNodeToNet(join[0], join[1])
		core.InstallStaticRoutesReference([]*core.Network{b}, false)
		sameTables(t, join[0]+" joins "+join[1]+", recomputed", names, one(a), one(b))
		check(join[0] + " joined " + join[1])
	}
}

// TestAnchoredDomainsMatchReference: the oracle searches a stub domain
// on its own side and hands every node beyond its anchor (the gateway
// that cuts it off) the anchor's search outward. Each case below is a
// shape where that split could go wrong, held to the reference oracle,
// which runs a full BFS per net.
func TestAnchoredDomainsMatchReference(t *testing.T) {
	cases := []struct {
		name  string
		build func() *core.Network
		join  []string // a node and a LAN it joins after the first check
	}{{
		// On each access trunk of t0 and t2 one of the two stations
		// attached first; t0's four nets are consecutive, t2's too.
		name: "access trunks",
		build: func() *core.Network {
			l := newStubLab(4)
			l.stub("t0", "s0", true)
			l.stub("t0", "s1", false)
			l.stub("t2", "s2", false)
			l.stub("t2", "s3", true)
			return l.Network
		},
	}, {
		// The first node, where the oracle's DFS starts, is a stub
		// gateway: the cuts are found from inside a stub domain.
		name: "search from a stub",
		build: func() *core.Network {
			l := &stubLab{Network: core.New(1)}
			l.AddGateway("s0", l.net("a-s0", core.P2P), l.net("lan-s0", core.LAN))
			l.AddHost("h-s0", "lan-s0")
			for i := range 4 {
				l.net(fmt.Sprintf("r%d", i), core.P2P)
			}
			for i := range 4 {
				l.AddGateway(fmt.Sprintf("t%d", i), fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", (i+3)%4))
			}
			l.AttachNodeToNet("t0", "a-s0")
			l.stub("t0", "s1", true)
			l.stub("t1", "s2", false)
			l.stub("t3", "s3", true)
			return l.Network
		},
	}, {
		// s000 sits three stub domains deep behind t0; t1's nets come
		// between t0's.
		name: "nested stubs",
		build: func() *core.Network {
			l := newStubLab(4)
			l.stub("t0", "s0", true)
			l.stub("t1", "s1", true)
			l.stub("s0", "s00", false)
			l.stub("s00", "s000", true)
			l.stub("t2", "s2", true)
			l.stub("t3", "s3", false)
			return l.Network
		},
	}, {
		// d hangs off both t0 and t2: no gateway cuts it off, and its
		// access trunks have no anchor; its LAN has d.
		name: "dual-homed stub",
		build: func() *core.Network {
			l := newStubLab(4)
			l.stub("t0", "d", true)
			l.AttachNodeToNet("t2", l.net("a2-d", core.P2P))
			l.AttachNodeToNet("d", "a2-d")
			l.stub("t0", "s0", false)
			l.stub("t1", "s1", true)
			l.stub("t3", "s3", true)
			return l.Network
		},
	}, {
		// h-s0000, four stub domains deep behind t0, is also on t1's stub
		// LAN: toward t0's nets it is nearer through t1 than through its
		// own domain, so the host must join the two domains into one
		// block with the ring. h-s2 is on both of t2's stub LANs, and
		// lan-z holds only a host of one of them: no gateway reaches it.
		name: "host on two stub LANs",
		build: func() *core.Network {
			l := newStubLab(4)
			l.stub("t0", "s0", true)
			l.stub("s0", "s00", true)
			l.stub("s00", "s000", false)
			l.stub("s000", "s0000", true)
			l.stub("t1", "s1", true)
			l.stub("t2", "s2", true)
			l.stub("t2", "s3", false)
			l.stub("t3", "s4", true)
			l.stub("t3", "s5", true)
			l.AttachNodeToNet("h-s0000", "lan-s1")
			l.AttachNodeToNet("h-s2", "lan-s3")
			l.AddHost("z", "lan-s3", l.net("lan-z", core.LAN))
			return l.Network
		},
	}, {
		// s0 joins s2's LAN: the cuts at t0 and t2 around them dissolve
		// into the ring's block.
		name: "join dissolves a cut",
		build: func() *core.Network {
			l := newStubLab(4)
			l.stub("t0", "s0", true)
			l.stub("t0", "s1", false)
			l.stub("t2", "s2", true)
			l.stub("t2", "s3", true)
			l.stub("t3", "s4", false)
			return l.Network
		},
		join: []string{"s0", "lan-s2"},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { matchesReferenceOn(t, c.build, c.join...) })
	}
}
