package names_test

import (
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/names"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/udp"
)

// TestResolverStateMachine walks the query state machine through its
// transitions table-driven: per-replica retransmission with backoff,
// failover to the next replica, negative caching, TTL expiry during an
// outage (the stale answer must never be served), and a query bridging
// a crashed-then-restored directory on the retry timer.
//
// World: one LAN holding the client h1, the registrant h2 (whose name
// "svc" is in both zones at serial 1), and two directory hosts d1, d2.
// The server TTL is 1s.
func TestResolverStateMachine(t *testing.T) {
	const ttl = time.Second
	cases := []struct {
		name         string
		crash        []string     // crashed after the optional warm lookup
		warm         bool         // resolve "svc" once before the case's lookup
		advance      sim.Duration // sim time between crash and the lookup
		restore      string       // node restored mid-query ...
		restoreAfter sim.Duration // ... this long after the lookup starts
		lookup       string
		double       bool // perform the lookup twice back to back
		wantOK       bool
		wantFailover bool // replica failover must have happened
		wantNegHit   bool // second lookup served from the negative cache
		wantExpired  bool // the warmed entry must have been TTL-evicted
	}{
		{name: "answer from first replica",
			lookup: "svc", wantOK: true},
		{name: "timeout and backoff fail over to second replica",
			crash: []string{"d1"}, lookup: "svc", wantOK: true, wantFailover: true},
		{name: "negative answer then negative-cache hit",
			lookup: "ghost", double: true, wantOK: false, wantNegHit: true},
		{name: "TTL expiry during outage never serves the stale answer",
			warm: true, crash: []string{"d1", "d2"}, advance: 2 * ttl,
			lookup: "svc", wantOK: false, wantExpired: true},
		{name: "query bridges a crashed-then-restored directory",
			crash: []string{"d1", "d2"}, restore: "d2", restoreAfter: 800 * time.Millisecond,
			lookup: "svc", wantOK: true, wantFailover: true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := core.New(1)
			nw.AddNet("lan", "10.0.5.0/24", core.LAN,
				phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
			for _, n := range []string{"h1", "h2", "d1", "d2"} {
				nw.AddHost(n, "lan")
			}
			eps := make([]udp.Endpoint, 2)
			for i, d := range []string{"d1", "d2"} {
				if _, err := names.NewServer(nw.UDP(d), d, names.ServerConfig{TTL: ttl}); err != nil {
					t.Fatal(err)
				}
				eps[i] = udp.Endpoint{Addr: nw.Addr(d), Port: names.Port}
			}
			// Seed both zones with svc = h2 (no replication peers: the
			// zones are independent, as after a missed update).
			reg, err := names.NewResolver(nw.UDP("h2"), names.ResolverConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range eps {
				reg.SetReplicas([]udp.Endpoint{ep})
				reg.Register("svc", nw.Addr("h2"), 1, func(ok bool) {
					if !ok {
						t.Fatal("zone seeding failed")
					}
				})
				nw.RunFor(100 * time.Millisecond)
			}

			r, err := names.NewResolver(nw.UDP("h1"), names.ResolverConfig{})
			if err != nil {
				t.Fatal(err)
			}
			r.SetReplicas(eps)

			if tc.warm {
				var warmOK bool
				r.Resolve("svc", func(_ ipv4.Addr, ok bool) { warmOK = ok })
				nw.RunFor(200 * time.Millisecond)
				if !warmOK {
					t.Fatal("warm lookup failed")
				}
			}
			for _, c := range tc.crash {
				nw.CrashNode(c)
			}
			if tc.advance > 0 {
				nw.RunFor(tc.advance)
			}

			lookups := 1
			if tc.double {
				lookups = 2
			}
			before := r.Stats()
			var addr ipv4.Addr
			var ok, done bool
			for i := 0; i < lookups; i++ {
				done = false
				r.Resolve(tc.lookup, func(a ipv4.Addr, o bool) { addr, ok, done = a, o, true })
				if tc.restore != "" {
					nw.Kernel().After(tc.restoreAfter, func() { nw.RestoreNode(tc.restore) })
				}
				for j := 0; j < 100 && !done; j++ {
					nw.RunFor(100 * time.Millisecond)
				}
				if !done {
					t.Fatal("lookup never completed")
				}
			}
			after := r.Stats()

			if ok != tc.wantOK {
				t.Fatalf("lookup %q ok = %t, want %t (addr %v)", tc.lookup, ok, tc.wantOK, addr)
			}
			if tc.wantOK && addr != nw.Addr("h2") {
				t.Fatalf("resolved %v, want %v", addr, nw.Addr("h2"))
			}
			if !tc.wantOK && addr != 0 {
				t.Fatalf("failed lookup still delivered address %v", addr)
			}
			if tc.wantFailover && after.Failovers == before.Failovers {
				t.Fatal("expected a replica failover")
			}
			if tc.wantFailover && after.Retries == before.Retries {
				t.Fatal("expected same-replica retransmissions before failing over")
			}
			if tc.wantNegHit && after.NegHits != before.NegHits+1 {
				t.Fatalf("neghits %d -> %d, want one negative-cache hit", before.NegHits, after.NegHits)
			}
			if tc.wantExpired && after.Expired == 0 {
				t.Fatal("warmed entry was never TTL-evicted")
			}
		})
	}
}
