package names_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/names"
	"darpanet/internal/topo"
	"darpanet/internal/udp"
)

// TestPropertyResolutionMatchesTopology is the generated-internet
// property: on random transit-stub and Waxman internets, after every
// host autoconfigures, every registered name resolves — from an
// arbitrary probe host — to exactly the address the topology assigned
// it, unknown names draw a negative answer that is cached for the
// negative TTL and no longer, and a renumbered host's old address is
// never served past the positive TTL.
func TestPropertyResolutionMatchesTopology(t *testing.T) {
	const (
		ttl    = 2 * time.Second
		negTTL = 500 * time.Millisecond
	)
	specs := []string{
		"transitstub:gw=4,stubs=2,hosts=2,mix=1,dirs=2",
		"waxman:gw=10,alpha=0.6,beta=0.4,hosts=1,mix=1,dirs=3",
	}
	for _, ss := range specs {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", ss, seed), func(t *testing.T) {
				spec, err := topo.ParseSpec(ss)
				if err != nil {
					t.Fatal(err)
				}
				nw, m := topo.Generate(spec, seed)
				nw.InstallStaticRoutes()
				if len(m.Directories) < 2 {
					t.Fatalf("placement gave %d directories, want >= 2", len(m.Directories))
				}

				// Directory servers on the placed gateways, fully peered.
				replicas := make([]names.Record, len(m.Directories))
				for i, d := range m.Directories {
					replicas[i] = names.Record{Name: d, Addr: nw.Addr(d), Serial: uint32(i)}
				}
				for i, d := range m.Directories {
					srv, err := names.NewServer(nw.UDP(d), d,
						names.ServerConfig{TTL: ttl, NegTTL: negTTL, Sync: time.Second})
					if err != nil {
						t.Fatal(err)
					}
					var peers []udp.Endpoint
					for j, rep := range replicas {
						if j != i {
							peers = append(peers, udp.Endpoint{Addr: rep.Addr, Port: names.Port})
						}
					}
					srv.SetPeers(peers)
				}
				// Every gateway answers Discover, nearest replica first.
				// A record's serial is its placement rank, so it picks the
				// replica's hops; as uint, unreachable (-1) sorts last.
				hops := make([][]int, len(m.Directories))
				for i, d := range m.Directories {
					hops[i] = m.NetHops(d)
				}
				for _, g := range m.GatewayNames() {
					firstNet := lanOf(m, g)
					recs := append([]names.Record(nil), replicas...)
					sort.SliceStable(recs, func(a, b int) bool {
						return uint(hops[recs[a].Serial][firstNet]) < uint(hops[recs[b].Serial][firstNet])
					})
					if _, err := names.InstallAgent(nw.UDP(g), recs); err != nil {
						t.Fatal(err)
					}
				}

				hostNames := m.HostNames()
				resolvers := make(map[string]*names.Resolver, len(hostNames))
				autoOK := make(map[string]bool, len(hostNames))
				for i, h := range hostNames {
					r, err := names.NewResolver(nw.UDP(h), names.ResolverConfig{})
					if err != nil {
						t.Fatal(err)
					}
					resolvers[h] = r
					h := h
					node := nw.Node(h)
					nw.Kernel().After(time.Duration(i)*10*time.Millisecond, func() {
						names.Autoconfigure(nw.UDP(h), node.Interfaces()[0], resolvers[h],
							names.HostConfig{Name: h, Serial: 1}, func(ok bool) { autoOK[h] = ok })
					})
				}
				nw.RunFor(3 * time.Second) // autoconf + anti-entropy rounds

				probe := resolvers[hostNames[0]]
				for _, h := range hostNames {
					if !autoOK[h] {
						t.Fatalf("host %s never autoconfigured", h)
					}
					a, ok := drive(nw, probe, h)
					if !ok || a != nw.Addr(h) {
						t.Fatalf("resolve %s = %v,%t, want %v", h, a, ok, nw.Addr(h))
					}
				}

				// Unknown names: negative answer, cached for the negative
				// TTL and no longer.
				if _, ok := drive(nw, probe, "no-such-host"); ok {
					t.Fatal("unknown name resolved")
				}
				neg0 := probe.Stats().NegAnswers
				if _, ok := drive(nw, probe, "no-such-host"); ok {
					t.Fatal("unknown name resolved on repeat")
				}
				if st := probe.Stats(); st.NegAnswers != neg0 || st.NegHits == 0 {
					t.Fatalf("repeat miss not absorbed by negative cache (answers %d->%d)", neg0, st.NegAnswers)
				}
				nw.RunFor(negTTL + 200*time.Millisecond)
				if _, ok := drive(nw, probe, "no-such-host"); ok {
					t.Fatal("unknown name resolved after negative expiry")
				}
				if st := probe.Stats(); st.NegAnswers != neg0+1 {
					t.Fatalf("expired negative entry not re-queried (answers %d, want %d)", st.NegAnswers, neg0+1)
				}

				// Renumber the last host onto a different LAN; past the
				// TTL boundary its old address must never be served.
				victim := hostNames[len(hostNames)-1]
				oldAddr := nw.Addr(victim)
				victimLAN := lanOf(m, victim)
				target := ""
				for _, h := range hostNames[:len(hostNames)-1] {
					if l := lanOf(m, h); l != victimLAN {
						target = m.NetDefs[l].Name
						break
					}
				}
				if target == "" {
					t.Fatal("no second LAN to renumber onto")
				}
				node := nw.Node(victim)
				node.Interfaces()[0].NIC.SetUp(false)
				nw.AttachNodeToNet(victim, target)
				names.Autoconfigure(nw.UDP(victim), node.Interfaces()[len(node.Interfaces())-1],
					resolvers[victim], names.HostConfig{Name: victim, Serial: 2}, func(bool) {})
				nw.RunFor(ttl + time.Second) // re-registration plus the whole old TTL

				newAddr := node.Interfaces()[len(node.Interfaces())-1].Addr
				a, ok := drive(nw, probe, victim)
				if !ok {
					t.Fatalf("post-renumber resolve of %s failed", victim)
				}
				if a == oldAddr {
					t.Fatalf("stale address %v for %s served past TTL expiry", oldAddr, victim)
				}
				if a != newAddr {
					t.Fatalf("resolve %s = %v, want renumbered %v", victim, a, newAddr)
				}
			})
		}
	}
}

// drive runs one lookup to completion on a serial network.
func drive(nw *core.Network, r *names.Resolver, name string) (ipv4.Addr, bool) {
	var addr ipv4.Addr
	var ok, done bool
	r.Resolve(name, func(a ipv4.Addr, o bool) { addr, ok, done = a, o, true })
	for i := 0; i < 100 && !done; i++ {
		nw.RunFor(100 * time.Millisecond)
	}
	return addr, ok
}

// lanOf returns the NetDefs index of a node's first attached network.
func lanOf(m *topo.Manifest, name string) int {
	return m.NodeNets(m.NodeIndex(name))[0]
}
