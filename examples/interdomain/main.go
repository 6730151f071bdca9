// Interdomain: the two-level routing the paper's "regions" imply.
//
// Three autonomous systems, each its own administration: inside each AS
// the gateways gossip full topology with the distance-vector protocol
// (RIP); between ASes the border gateways exchange only reachability with
// AS paths (EGP). No administration learns another's interior, yet a host
// in AS1 reaches a host in AS3 through AS2's transit service — and when
// AS2's border gateway dies, the exterior routes are withdrawn cleanly.
//
//	go run ./examples/interdomain
package main

import (
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/egp"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

func main() {
	nw := core.New(1983) // the year EGP was published (RFC 827 era)
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
	link := phys.Config{BitsPerSec: 1_544_000, Delay: 8 * time.Millisecond, MTU: 1500}

	// AS1: a campus — two LANs joined by an interior gateway.
	nw.AddNet("as1-lan1", "10.1.1.0/24", core.LAN, lan)
	nw.AddNet("as1-lan2", "10.1.2.0/24", core.LAN, lan)
	nw.AddHost("alice", "as1-lan1")
	nw.AddGateway("as1-igw", "as1-lan1", "as1-lan2")
	nw.AddGateway("as1-border", "as1-lan2")

	// AS2: a transit provider — one backbone LAN.
	nw.AddNet("as2-core", "10.2.1.0/24", core.LAN, lan)
	nw.AddGateway("as2-border1", "as2-core")
	nw.AddGateway("as2-border2", "as2-core")

	// AS3: another campus.
	nw.AddNet("as3-lan", "10.3.1.0/24", core.LAN, lan)
	nw.AddHost("carol", "as3-lan")
	nw.AddGateway("as3-border", "as3-lan")

	// Inter-AS links.
	nw.AddNet("x12", "192.0.1.0/24", core.P2P, link)
	nw.AddNet("x23", "192.0.2.0/24", core.P2P, link)
	nw.AttachNodeToNet("as1-border", "x12")
	nw.AttachNodeToNet("as2-border1", "x12")
	nw.AttachNodeToNet("as2-border2", "x23")
	nw.AttachNodeToNet("as3-border", "x23")

	// Interior routing: RIP runs only within each administration.
	cfg := rip.FastConfig()
	nw.EnableRIP(cfg, "alice", "as1-igw", "as1-border")
	nw.EnableRIP(cfg, "as2-border1", "as2-border2")
	nw.EnableRIP(cfg, "carol", "as3-border")
	// Interior routing stays interior: border gateways do not speak RIP
	// on the inter-AS links (that is what EGP is for).
	interAS := map[ipv4.Prefix]bool{
		nw.Prefix("x12"): true,
		nw.Prefix("x23"): true,
	}
	for _, name := range []string{"as1-border", "as2-border1", "as2-border2", "as3-border"} {
		nw.RIP(name).SetInterfaceFilter(func(ifc *stack.Interface) bool {
			return !interAS[ifc.Prefix]
		})
	}
	// Hosts and interior gateways reach the world through a default
	// route toward their border.
	nw.SetDefaultRoute("as1-igw", "as1-border")
	nw.SetDefaultRoute("alice", "as1-igw")
	nw.SetDefaultRoute("carol", "as3-border")

	// Exterior routing: border gateways speak EGP.
	mk := func(name string, as egp.AS, prefixes ...string) *egp.Speaker {
		s, err := egp.New(nw.Node(name), nw.UDP(name), as, egp.Config{
			UpdateInterval: 2 * time.Second, HoldTime: 7 * time.Second,
		})
		if err != nil {
			panic(err)
		}
		for _, p := range prefixes {
			s.Originate(ipv4.MustParsePrefix(p))
		}
		return s
	}
	s1 := mk("as1-border", 1, "10.1.1.0/24", "10.1.2.0/24")
	s2a := mk("as2-border1", 2, "10.2.1.0/24")
	s2b := mk("as2-border2", 2)
	s3 := mk("as3-border", 3, "10.3.1.0/24")

	peerAddr := func(node, net string) ipv4.Addr {
		p := nw.Prefix(net)
		for _, ifc := range nw.Node(node).Interfaces() {
			if ifc.Prefix == p {
				return ifc.Addr
			}
		}
		panic("not on net")
	}
	s1.AddPeer(peerAddr("as2-border1", "x12"))
	s2a.AddPeer(peerAddr("as1-border", "x12"))
	s2b.AddPeer(peerAddr("as3-border", "x23"))
	s3.AddPeer(peerAddr("as2-border2", "x23"))
	// AS2's two borders share routes via their interior: redistribute
	// by peering with each other over the core LAN (a crude iBGP).
	s2a.AddPeer(peerAddr("as2-border2", "as2-core"))
	s2b.AddPeer(peerAddr("as2-border1", "as2-core"))

	for _, s := range []*egp.Speaker{s1, s2a, s2b, s3} {
		s.Start()
	}

	fmt.Println("three administrations, interior RIP + exterior EGP; converging...")
	nw.RunFor(25 * time.Second)

	path, ok := s1.PathTo(ipv4.MustParsePrefix("10.3.1.0/24"))
	fmt.Printf("AS1 border's route to AS3's LAN: AS path %v (ok=%v)\n", path, ok)

	got := 0
	nw.Node("alice").Ping(nw.Addr("carol"), 3, 100*time.Millisecond, func(seq uint16, rtt sim.Duration) {
		got++
		fmt.Printf("alice -> carol seq=%d rtt=%.1f ms (across two AS boundaries)\n", seq, float64(rtt)/1e6)
	})
	nw.RunFor(3 * time.Second)
	if got != 3 {
		fmt.Println("pings failed!")
	}

	fmt.Println("\ncrashing AS2's border to AS3; exterior routes must be withdrawn...")
	nw.CrashNode("as2-border2")
	nw.RunFor(20 * time.Second)
	if _, ok := s1.PathTo(ipv4.MustParsePrefix("10.3.1.0/24")); !ok {
		fmt.Println("AS1 cleanly withdrew the route through the dead transit path.")
	} else {
		fmt.Println("stale exterior route survived (unexpected).")
	}
}
