package topo

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"darpanet/internal/sim"
)

func TestParseSpecDefaults(t *testing.T) {
	for _, shape := range []string{"line", "ring", "tree", "transitstub", "waxman"} {
		spec, err := ParseSpec(shape)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", shape, err)
		}
		if spec.Shape != Shape(shape) || spec.Gateways < 1 {
			t.Fatalf("ParseSpec(%q) = %+v", shape, spec)
		}
	}
}

func TestParseSpecOverrides(t *testing.T) {
	spec, err := ParseSpec("transitstub:gw=4,stubs=2,hosts=3,mix=0")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Shape: TransitStub, Gateways: 4, StubsPer: 2, Hosts: 3, Mix: false}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
}

func TestParseSpecRejectsJunk(t *testing.T) {
	for _, s := range []string{
		"mesh", "line:gw=0", "tree:degree=0", "waxman:alpha=0",
		"line:bogus=1", "line:gw", "transitstub:stubs=0",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

// TestAddressPlanLimits holds the generator to the address plan: a spec
// that cannot be addressed — more hosts than a /24 stub LAN holds, more
// nets than 10/8 has /24s — is rejected by ParseSpec, the largest specs
// that can be are accepted, and where the net count only shows while
// generating (Waxman) the allocator stops with the limit in its message
// instead of minting 10.256.0.0/24.
func TestAddressPlanLimits(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"line:gw=2,hosts=253", true},
		{"line:gw=2,hosts=254", false},
		{"line:gw=2,hosts=300", false},
		{"line:gw=31875,hosts=0", true}, // 63 749 nets
		{"line:gw=31876,hosts=0", false},
		{"line:gw=32000,hosts=0", false},
		{"tree:gw=31876,degree=2,hosts=0", false},
		{"ring:gw=31875,hosts=0", true}, // 63 750 nets: the last /24
		{"ring:gw=31876,hosts=0", false},
		{"transitstub:gw=250,stubs=126,hosts=0", true}, // 250 + 50 + 63 000
		{"transitstub:gw=250,stubs=127,hosts=0", false},
		{"transitstub:gw=5,stubs=9223372036854775807", false},
		{"waxman:gw=31876,hosts=0", false}, // the spanning tree alone is too many
		{"waxman:gw=9223372036854775807", false},
	} {
		if _, err := ParseSpec(tc.spec); (err == nil) != tc.ok {
			t.Errorf("ParseSpec(%q): err %v, want accepted=%v", tc.spec, err, tc.ok)
		} else if err != nil && !tc.ok && !strings.Contains(err.Error(), "253") && !strings.Contains(err.Error(), "63750") {
			t.Errorf("ParseSpec(%q): %v does not name the limit", tc.spec, err)
		}
	}
	// minNets is the count the generator reaches, shape by shape.
	for _, s := range []string{
		"line:gw=1", "line:gw=9", "ring:gw=1", "ring:gw=2", "ring:gw=3", "ring:gw=9", "tree:gw=10,degree=3",
		"transitstub:gw=1,stubs=1", "transitstub:gw=5,stubs=2", "transitstub:gw=6,stubs=1", "transitstub:gw=11,stubs=3",
	} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := ManifestOnly(spec, 3).Nets; int64(got) != spec.minNets() {
			t.Errorf("%s generates %d nets, minNets says %d", s, got, spec.minNets())
		}
	}

	b := &builder{m: &Manifest{Spec: "waxman:gw=400"}, netIdx: maxNets - 1}
	if got := b.prefix(); got != "10.255.249.0/24" {
		t.Fatalf("last prefix of the plan = %s", got)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "63750") || !strings.Contains(msg, "waxman:gw=400") {
			t.Errorf("allocator past the plan: %s, want a message naming the spec and the limit", msg)
		}
	}()
	b.prefix()
	t.Error("allocator minted a prefix past 10.255.249.0/24")
}

func TestSpecStringRoundTrips(t *testing.T) {
	for _, s := range []string{
		"line:gw=8,hosts=2,mix=1",
		"tree:gw=15,degree=3,hosts=1,mix=0",
		"transitstub:gw=6,stubs=2,hosts=1,mix=1",
		"waxman:gw=12,alpha=0.3,beta=0.5,hosts=1,mix=1",
	} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", spec.String(), err)
		}
		if back != spec {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", s, spec, spec.String(), back)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, shape := range []string{"ring:gw=6", "waxman:gw=10", "transitstub:gw=5,stubs=2"} {
		spec, err := ParseSpec(shape)
		if err != nil {
			t.Fatal(err)
		}
		_, m1 := Generate(spec, 7)
		_, m2 := Generate(spec, 7)
		j1, _ := json.Marshal(m1)
		j2, _ := json.Marshal(m2)
		if string(j1) != string(j2) {
			t.Fatalf("%s: same (spec, seed) produced different manifests", shape)
		}
		_, m3 := Generate(spec, 8)
		j3, _ := json.Marshal(m3)
		if spec.Mix && string(j1) == string(j3) {
			t.Fatalf("%s: different seeds produced identical mixed manifests", shape)
		}
	}
}

func TestDefaultSpecScale(t *testing.T) {
	nw, m := Generate(DefaultSpec(), 1)
	if m.Gateways != 200 {
		t.Fatalf("gateways = %d, want 200", m.Gateways)
	}
	if m.Nets < 300 {
		t.Fatalf("nets = %d, want >= 300", m.Nets)
	}
	if m.Stubs != 175 || m.Hosts != 175 {
		t.Fatalf("stubs = %d hosts = %d, want 175/175", m.Stubs, m.Hosts)
	}
	if got := len(nw.Nodes()); got != m.Gateways+m.Hosts {
		t.Fatalf("live nodes = %d, manifest says %d", got, m.Gateways+m.Hosts)
	}
	if got := len(nw.AllPrefixes()); got != m.Nets {
		t.Fatalf("live prefixes = %d, manifest says %d", got, m.Nets)
	}
}

func TestManifestMatchesNetwork(t *testing.T) {
	spec, _ := ParseSpec("tree:gw=7,degree=2,hosts=2")
	nw, m := Generate(spec, 3)
	if len(m.NetDefs) != m.Nets || m.Nets != m.Trunks+m.Stubs {
		t.Fatalf("net bookkeeping off: %+v", m)
	}
	for _, nd := range m.NetDefs {
		if nw.Prefix(nd.Name).String() != nd.Prefix {
			t.Fatalf("net %s: manifest prefix %s, live %s", nd.Name, nd.Prefix, nw.Prefix(nd.Name))
		}
	}
	for _, nd := range m.NodeDefs {
		if nw.Node(nd.Name).Forwarding != nd.Forwarding {
			t.Fatalf("node %s forwarding mismatch", nd.Name)
		}
	}
}

// TestShapesConnected: from g0 every generated net must be reachable
// through forwarding nodes, for every shape at several seeds.
func TestShapesConnected(t *testing.T) {
	for _, s := range []string{
		"line:gw=8", "ring:gw=8", "tree:gw=13,degree=3",
		"transitstub:gw=5,stubs=2", "waxman:gw=14",
	} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			_, m := Generate(spec, seed)
			hops := m.NetHops("g0")
			if len(hops) != m.Nets {
				t.Fatalf("%s seed %d: NetHops has %d entries for %d nets", s, seed, len(hops), m.Nets)
			}
			if n := slices.Index(hops, -1); n >= 0 {
				t.Fatalf("%s seed %d: g0 does not reach %s", s, seed, m.NetDefs[n].Name)
			}
		}
	}
}

func TestNetHopsLine(t *testing.T) {
	spec, _ := ParseSpec("line:gw=5,hosts=0,mix=0")
	_, m := Generate(spec, 1)
	hops := m.NetHops("g0")
	// g0's own stub s0 is direct; g4's stub s4 sits behind 4 gateways.
	if h := hops[m.NetIndex("s0")]; h != 0 {
		t.Fatalf("hops to s0 = %d, want 0", h)
	}
	if h := hops[m.NetIndex("s4")]; h != 4 {
		t.Fatalf("hops to s4 = %d, want 4", h)
	}
}

// refNetHops is NetHops as it was before the manifest carried its
// index: a BFS over nodes through name-keyed maps rebuilt on every
// call. It is the reference FuzzNetHopsMatchesReference holds the
// indexed BFS to; an unreachable net is absent from its map.
func refNetHops(m *Manifest, from string) map[string]int {
	nodeNets := make(map[string][]string, len(m.NodeDefs))
	netNodes := make(map[string][]string, len(m.NetDefs))
	forwarding := make(map[string]bool, len(m.NodeDefs))
	for _, nd := range m.NodeDefs {
		nodeNets[nd.Name] = nd.Nets
		forwarding[nd.Name] = nd.Forwarding
		for _, n := range nd.Nets {
			netNodes[n] = append(netNodes[n], nd.Name)
		}
	}
	dist := make(map[string]int)     // net -> gateway hops
	nodeDist := make(map[string]int) // node -> hops spent reaching it
	queue := []string{from}
	nodeDist[from] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d := nodeDist[v]
		if v != from && !forwarding[v] {
			continue // datagrams do not transit hosts
		}
		for _, n := range nodeNets[v] {
			nd := d
			if v != from {
				nd = d + 1 // crossing gateway v
			}
			if cur, ok := dist[n]; ok && cur <= nd {
				continue
			}
			dist[n] = nd
			for _, w := range netNodes[n] {
				if _, seen := nodeDist[w]; !seen {
					nodeDist[w] = nd
					queue = append(queue, w)
				}
			}
		}
	}
	return dist
}

// FuzzNetHopsMatchesReference: for a spec that parses small enough to
// build, the manifest's name lookups invert NodeDefs and NetDefs, its
// rows transpose them, and from every node, gateway or host, the
// indexed NetHops equals the map-based reference net by net, -1 where
// the reference has no entry.
func FuzzNetHopsMatchesReference(f *testing.F) {
	for _, s := range []string{
		"line:gw=6,hosts=2", "ring:gw=7,hosts=1", "tree:gw=10,degree=3,hosts=0",
		"transitstub:gw=6,stubs=2,hosts=1", "waxman:gw=12,alpha=0.3,beta=0.3,hosts=1",
	} {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, in string, seed int64) {
		spec, err := ParseSpec(in)
		if err != nil || spec.HostCount() > 300 || spec.minNets() > 300 || spec.Shape == Waxman && spec.Gateways > 60 {
			return // every node runs both BFSes: keep the graph small
		}
		m := ManifestOnly(spec, seed)
		for i, nd := range m.NodeDefs {
			if m.NodeIndex(nd.Name) != i {
				t.Fatalf("%s: NodeIndex(%s) = %d, want %d", spec, nd.Name, m.NodeIndex(nd.Name), i)
			}
		}
		for j, nf := range m.NetDefs {
			if m.NetIndex(nf.Name) != j {
				t.Fatalf("%s: NetIndex(%s) = %d, want %d", spec, nf.Name, m.NetIndex(nf.Name), j)
			}
		}
		// The rows transpose NodeDefs: a node's nets in attachment
		// order, and a net's nodes in NodeDefs order, which is the order
		// a cross trunk's two sides are wired in. An append to one row
		// copies it, so the next row checked is still intact.
		rows := make([][]int, len(m.NetDefs))
		for i, nd := range m.NodeDefs {
			var nets []int
			for _, n := range nd.Nets {
				nets = append(nets, m.NetIndex(n))
				rows[m.NetIndex(n)] = append(rows[m.NetIndex(n)], i)
			}
			if got := m.NodeNets(i); !slices.Equal(got, nets) {
				t.Fatalf("%s: node %s's row %v, want %v", spec, nd.Name, got, nets)
			}
			_ = append(m.NodeNets(i), -1)
		}
		for j, want := range rows {
			if got := m.NetNodes(j); !slices.Equal(got, want) {
				t.Fatalf("%s: net %s's row %v, want %v", spec, m.NetDefs[j].Name, got, want)
			}
			_ = append(m.NetNodes(j), -1)
		}
		for _, nd := range m.NodeDefs {
			got, want := m.NetHops(nd.Name), refNetHops(m, nd.Name)
			if len(got) != len(m.NetDefs) {
				t.Fatalf("%s: NetHops(%s) has %d entries for %d nets", spec, nd.Name, len(got), len(m.NetDefs))
			}
			for j, nf := range m.NetDefs {
				w, ok := want[nf.Name]
				if !ok {
					w = -1
				}
				if got[j] != w {
					t.Fatalf("%s seed %d: NetHops(%s)[%s] = %d, reference %d", spec, seed, nd.Name, nf.Name, got[j], w)
				}
			}
		}
	})
}

// TestStaticOracleMatchesManifestBFS cross-checks the two independent
// shortest-path computations: core's all-pairs static oracle on the
// live network and the manifest's graph BFS.
func TestStaticOracleMatchesManifestBFS(t *testing.T) {
	spec, _ := ParseSpec("waxman:gw=12,hosts=1")
	for seed := int64(1); seed <= 3; seed++ {
		nw, m := Generate(spec, seed)
		nw.InstallStaticRoutes()
		for _, gw := range m.GatewayNames() {
			hops := m.NetHops(gw)
			for i, nd := range m.NetDefs {
				want := hops[i]
				if want <= 0 {
					continue // direct nets carry no static route
				}
				r, ok := nw.Node(gw).Table.Lookup(nw.Prefix(nd.Name).Host(1))
				if !ok {
					t.Fatalf("seed %d: %s has no route to %s", seed, gw, nd.Name)
				}
				if r.Metric != want {
					t.Fatalf("seed %d: %s -> %s metric %d, BFS says %d",
						seed, gw, nd.Name, r.Metric, want)
				}
			}
		}
	}
}

// TestGeneratedInternetCarriesTraffic drives a real datagram across a
// generated graph end to end: host default route -> stub gateway ->
// backbone -> far stub.
func TestGeneratedInternetCarriesTraffic(t *testing.T) {
	spec, _ := ParseSpec("transitstub:gw=4,stubs=2,hosts=1,mix=0")
	nw, m := Generate(spec, 2)
	nw.InstallStaticRoutes()
	hosts := m.HostNames()
	first, last := hosts[0], hosts[len(hosts)-1]
	got := 0
	nw.Node(first).Ping(nw.Addr(last), 3, 10*time.Millisecond, func(uint16, sim.Duration) { got++ })
	nw.RunFor(5 * time.Second)
	if got != 3 {
		t.Fatalf("%s -> %s replies = %d, want 3", first, last, got)
	}
}
