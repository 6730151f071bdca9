package names_test

import (
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/names"
	"darpanet/internal/phys"
	"darpanet/internal/stack"
	"darpanet/internal/udp"
)

// world is the small two-LAN internet the integration tests share:
//
//	h1 — lan1 — g1 — trunk — g2 — lan2 — h2
//	                          └── lan3 (renumber target)
//
// Gateways get manual routes (they are the network, not the system
// under test); the hosts get nothing — autoconfiguration must earn
// their default routes.
type world struct {
	nw       *core.Network
	servers  []*names.Server // on g1, g2
	replicas []udp.Endpoint
}

func buildWorld(t *testing.T, cfg names.ServerConfig) *world {
	t.Helper()
	nw := core.New(1)
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
	p2p := phys.Config{BitsPerSec: 1_544_000, Delay: 5 * time.Millisecond, MTU: 1500}
	nw.AddNet("lan1", "10.0.1.0/24", core.LAN, lan)
	nw.AddNet("lan2", "10.0.2.0/24", core.LAN, lan)
	nw.AddNet("lan3", "10.0.3.0/24", core.LAN, lan)
	nw.AddNet("trunk", "10.0.0.0/30", core.P2P, p2p)
	g1 := nw.AddGateway("g1", "lan1", "trunk")
	g2 := nw.AddGateway("g2", "lan2", "lan3", "trunk")
	nw.AddHost("h1", "lan1")
	nw.AddHost("h2", "lan2")
	// Gateway routes by hand; hosts stay empty.
	add := func(n *stack.Node, prefix string, via ipv4.Addr) {
		n.Table.Add(stack.Route{Prefix: ipv4.MustParsePrefix(prefix), Via: via, IfIndex: indexOf(n, via), Source: stack.SourceStatic})
	}
	g1trunk := g1.Interfaces()[1].Addr // g1 nets: lan1, trunk
	g2trunk := g2.Interfaces()[2].Addr // g2 nets: lan2, lan3, trunk
	add(g1, "10.0.2.0/24", g2trunk)
	add(g1, "10.0.3.0/24", g2trunk)
	add(g2, "10.0.1.0/24", g1trunk)

	w := &world{nw: nw}
	for _, g := range []string{"g1", "g2"} {
		w.replicas = append(w.replicas, udp.Endpoint{Addr: nw.Addr(g), Port: names.Port})
	}
	for i, g := range []string{"g1", "g2"} {
		srv, err := names.NewServer(nw.UDP(g), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetPeers([]udp.Endpoint{w.replicas[1-i]})
		w.servers = append(w.servers, srv)
	}
	// Every gateway answers Discover with the replica list, itself first.
	for i, g := range []string{"g1", "g2"} {
		recs := []names.Record{
			{Name: g, Addr: w.replicas[i].Addr, Serial: 0},
			{Name: []string{"g2", "g1"}[i], Addr: w.replicas[1-i].Addr, Serial: 1},
		}
		if _, err := names.InstallAgent(nw.UDP(g), recs); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// indexOf finds the interface whose subnet contains via — test-only
// sugar for wiring gateway routes.
func indexOf(n *stack.Node, via ipv4.Addr) int {
	for _, ifc := range n.Interfaces() {
		if ifc.Prefix.Contains(via) {
			return ifc.Index
		}
	}
	return 0
}

// autoconf runs host autoconfiguration and returns its resolver.
func autoconf(t *testing.T, w *world, host string, serial uint32) *names.Resolver {
	t.Helper()
	nw := w.nw
	r, err := names.NewResolver(nw.UDP(host), names.ResolverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	node := nw.Node(host)
	names.Autoconfigure(nw.UDP(host), node.Interfaces()[len(node.Interfaces())-1], r,
		names.HostConfig{Name: host, Serial: serial}, func(bool) {})
	return r
}

// resolve drives one lookup to completion and returns its outcome.
func resolve(w *world, r *names.Resolver, name string) (ipv4.Addr, bool) {
	var addr ipv4.Addr
	var ok, done bool
	r.Resolve(name, func(a ipv4.Addr, o bool) { addr, ok, done = a, o, true })
	for i := 0; i < 100 && !done; i++ {
		w.nw.RunFor(100 * time.Millisecond)
	}
	return addr, ok
}

// TestAutoconfRegisterResolve is the tentpole end to end in miniature:
// two hosts attach knowing only their own names, discover their
// gateways, register, and then resolve each other — with the bindings
// replicated to both directory servers.
func TestAutoconfRegisterResolve(t *testing.T) {
	w := buildWorld(t, names.ServerConfig{})
	r1 := autoconf(t, w, "h1", 1)
	r2 := autoconf(t, w, "h2", 1)
	w.nw.RunFor(time.Second)

	if a, ok := resolve(w, r1, "h2"); !ok || a != w.nw.Addr("h2") {
		t.Fatalf("h1 resolve h2 = %v,%t, want %v", a, ok, w.nw.Addr("h2"))
	}
	if a, ok := resolve(w, r2, "h1"); !ok || a != w.nw.Addr("h1") {
		t.Fatalf("h2 resolve h1 = %v,%t, want %v", a, ok, w.nw.Addr("h1"))
	}
	// h1 registered at g1 and h2 at g2; replication must land both
	// names on both replicas.
	for i, srv := range w.servers {
		for _, h := range []string{"h1", "h2"} {
			if a, _, ok := srv.Lookup(h); !ok || a != w.nw.Addr(h) {
				t.Fatalf("server %d zone missing %s (got %v,%t)", i, h, a, ok)
			}
		}
	}
}

// TestCacheHitAndTTLExpiry: a repeat lookup inside the TTL is served
// from cache without touching the network; past the TTL the entry is
// evicted by its timer and the next lookup queries again.
func TestCacheHitAndTTLExpiry(t *testing.T) {
	w := buildWorld(t, names.ServerConfig{TTL: 2 * time.Second})
	r1 := autoconf(t, w, "h1", 1)
	autoconf(t, w, "h2", 1)
	w.nw.RunFor(time.Second)

	if _, ok := resolve(w, r1, "h2"); !ok {
		t.Fatal("first resolve failed")
	}
	q0 := r1.Stats().Queries
	if _, ok := resolve(w, r1, "h2"); !ok {
		t.Fatal("cached resolve failed")
	}
	st := r1.Stats()
	if st.Queries != q0 || st.Hits != 1 {
		t.Fatalf("repeat lookup hit the network: queries %d -> %d, hits %d", q0, st.Queries, st.Hits)
	}
	w.nw.RunFor(3 * time.Second) // past the 2s TTL
	if st := r1.Stats(); st.Expired == 0 {
		t.Fatal("TTL timer never evicted the entry")
	}
	if r1.CacheLen() != 0 {
		t.Fatalf("cache holds %d entries past expiry", r1.CacheLen())
	}
	if _, ok := resolve(w, r1, "h2"); !ok {
		t.Fatal("post-expiry resolve failed")
	}
	if st := r1.Stats(); st.Queries != q0+1 {
		t.Fatalf("post-expiry lookup did not re-query: %d -> %d", q0, st.Queries)
	}
}

// TestNegativeCache: an authoritative non-existence answer is cached
// for the negative TTL and absorbs repeat misses.
func TestNegativeCache(t *testing.T) {
	w := buildWorld(t, names.ServerConfig{NegTTL: 2 * time.Second})
	r1 := autoconf(t, w, "h1", 1)
	w.nw.RunFor(time.Second)

	if _, ok := resolve(w, r1, "ghost"); ok {
		t.Fatal("unknown name resolved")
	}
	if st := r1.Stats(); st.NegAnswers != 1 {
		t.Fatalf("want 1 negative answer, got %d", st.NegAnswers)
	}
	if _, ok := resolve(w, r1, "ghost"); ok {
		t.Fatal("unknown name resolved on repeat")
	}
	if st := r1.Stats(); st.NegHits != 1 {
		t.Fatalf("repeat miss not served from negative cache (neghits %d)", st.NegHits)
	}
}

// TestRenumberReRegister: a host moves to another LAN, re-runs
// autoconfiguration with a higher serial, and the rest of the internet
// converges on the new address once the old answer's TTL passes —
// never serving the stale address past expiry.
func TestRenumberReRegister(t *testing.T) {
	w := buildWorld(t, names.ServerConfig{TTL: 2 * time.Second})
	r1 := autoconf(t, w, "h1", 1)
	r2 := autoconf(t, w, "h2", 1)
	w.nw.RunFor(time.Second)

	oldAddr, ok := resolve(w, r1, "h2")
	if !ok {
		t.Fatal("pre-renumber resolve failed")
	}

	// Renumber: old interface down, attach to lan3, autoconf serial 2.
	h2 := w.nw.Node("h2")
	h2.Interfaces()[0].NIC.SetUp(false)
	w.nw.AttachNodeToNet("h2", "lan3")
	names.Autoconfigure(w.nw.UDP("h2"), h2.Interfaces()[1], r2,
		names.HostConfig{Name: "h2", Serial: 2}, func(bool) {})
	w.nw.RunFor(3 * time.Second) // registration + old TTL fully elapsed

	newAddr, ok := resolve(w, r1, "h2")
	if !ok {
		t.Fatal("post-renumber resolve failed")
	}
	if newAddr == oldAddr {
		t.Fatalf("stale address %v served past expiry", oldAddr)
	}
	want := h2.Interfaces()[1].Addr
	if newAddr != want {
		t.Fatalf("resolved %v, want renumbered %v", newAddr, want)
	}
	// The higher serial must have won on both replicas.
	for i, srv := range w.servers {
		if a, serial, ok := srv.Lookup("h2"); !ok || serial != 2 || a != want {
			t.Fatalf("server %d holds %v serial %d, want %v serial 2", i, a, serial, want)
		}
	}
}
