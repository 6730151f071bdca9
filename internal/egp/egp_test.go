package egp_test

import (
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/egp"
	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
	"darpanet/internal/udp"
)

func fastEGP() egp.Config {
	return egp.Config{UpdateInterval: 2 * time.Second, HoldTime: 7 * time.Second}
}

// threeAS builds AS1 -- AS2 -- AS3 in a line. Each AS is one border
// gateway owning one stub LAN; inter-AS links are P2P nets.
//
//	stub1--bg1 ==x12== bg2--stub2, bg2 ==x23== bg3--stub3
func threeAS(seed int64) (*core.Network, map[int]*egp.Speaker) {
	nw := core.New(seed)
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
	link := phys.Config{BitsPerSec: 1_544_000, Delay: 5 * time.Millisecond, MTU: 1500}
	nw.AddNet("stub1", "10.1.0.0/24", core.LAN, lan)
	nw.AddNet("stub2", "10.2.0.0/24", core.LAN, lan)
	nw.AddNet("stub3", "10.3.0.0/24", core.LAN, lan)
	nw.AddNet("x12", "192.0.1.0/24", core.P2P, link)
	nw.AddNet("x23", "192.0.2.0/24", core.P2P, link)
	nw.AddHost("h1", "stub1")
	nw.AddHost("h3", "stub3")
	nw.AddGateway("bg1", "stub1", "x12")
	nw.AddGateway("bg2", "x12", "stub2", "x23")
	nw.AddGateway("bg3", "x23", "stub3")
	nw.SetDefaultRoute("h1", "bg1")
	nw.SetDefaultRoute("h3", "bg3")

	speakers := make(map[int]*egp.Speaker)
	mk := func(i int, name string, as egp.AS, originates string) *egp.Speaker {
		s, err := egp.New(nw.Node(name), nw.UDP(name), as, fastEGP())
		if err != nil {
			panic(err)
		}
		s.Originate(ipv4.MustParsePrefix(originates))
		speakers[i] = s
		return s
	}
	s1 := mk(1, "bg1", 1, "10.1.0.0/24")
	s2 := mk(2, "bg2", 2, "10.2.0.0/24")
	s3 := mk(3, "bg3", 3, "10.3.0.0/24")

	// Peerings over the shared inter-AS nets.
	s1.AddPeer(addrOn(nw, "bg2", "x12"))
	s2.AddPeer(addrOn(nw, "bg1", "x12"))
	s2.AddPeer(addrOn(nw, "bg3", "x23"))
	s3.AddPeer(addrOn(nw, "bg2", "x23"))

	for _, s := range speakers {
		s.Start()
	}
	return nw, speakers
}

// counter reads one of a speaker's counters from the kernel's registry.
func counter(nw *core.Network, node, name string) uint64 {
	v, _ := metrics.For(nw.Kernel()).Snapshot().Get(node + "/egp/" + name)
	return v
}

func addrOn(nw *core.Network, node, net string) ipv4.Addr {
	p := nw.Prefix(net)
	for _, ifc := range nw.Node(node).Interfaces() {
		if ifc.Prefix == p {
			return ifc.Addr
		}
	}
	panic("node not on net")
}

func TestTransitReachability(t *testing.T) {
	nw, speakers := threeAS(1)
	nw.RunFor(20 * time.Second)

	// AS1's border must have learned AS3's stub through AS2.
	path, ok := speakers[1].PathTo(ipv4.MustParsePrefix("10.3.0.0/24"))
	if !ok {
		t.Fatal("bg1 has no route to AS3's stub")
	}
	if len(path) != 2 || path[0] != 2 || path[1] != 3 {
		t.Fatalf("AS path = %v, want [2 3]", path)
	}

	// And traffic flows end to end: h1 (AS1) pings h3 (AS3).
	got := 0
	nw.Node("h1").Ping(nw.Addr("h3"), 3, 50*time.Millisecond, func(uint16, sim.Duration) { got++ })
	nw.RunFor(2 * time.Second)
	if got != 3 {
		t.Fatalf("pings across two AS boundaries = %d, want 3", got)
	}
}

func TestLoopPrevention(t *testing.T) {
	// Receiver-side AS-path loop rejection, exercised directly: a peer
	// advertises a route whose path already contains the receiver's own
	// AS. The receiver must reject it and install nothing.
	nw := core.New(3)
	link := phys.Config{BitsPerSec: 1_544_000, Delay: 5 * time.Millisecond, MTU: 1500}
	nw.AddNet("x", "192.0.1.0/24", core.P2P, link)
	nw.AddGateway("bgA", "x")
	nw.AddGateway("bgB", "x")
	sA, err := egp.New(nw.Node("bgA"), nw.UDP("bgA"), 7, fastEGP())
	if err != nil {
		t.Fatal(err)
	}
	sA.AddPeer(addrOn(nw, "bgB", "x"))
	sA.Start()

	// bgB is not a speaker: it crafts a raw advertisement claiming a
	// prefix whose AS path runs ...through AS 7 itself.
	sock, err := nw.UDP("bgB").Listen(179, nil)
	if err != nil {
		t.Fatal(err)
	}
	evil := []byte{1, 0, 9, 1, // ver, senderAS=9, count=1
		10, 5, 0, 0, // prefix 10.5.0.0
		24,   // bits
		3,    // path length
		0, 9, // AS 9
		0, 7, // AS 7  <- the receiver itself: loop!
		0, 4, // AS 4
	}
	nw.Kernel().After(time.Second, func() {
		sock.SendTo(udp.Endpoint{Addr: addrOn(nw, "bgA", "x"), Port: egp.Port}, evil)
	})
	nw.RunFor(10 * time.Second)
	if n := counter(nw, "bgA", "loops_rejected"); n != 1 {
		t.Fatalf("loops_rejected = %d, want 1", n)
	}
	if _, ok := sA.PathTo(ipv4.MustParsePrefix("10.5.0.0/24")); ok {
		t.Fatal("looped route was installed")
	}

	// The same advertisement without the loop is accepted.
	fine := []byte{1, 0, 9, 1,
		10, 5, 0, 0, 24, 2,
		0, 9, 0, 4,
	}
	nw.Kernel().After(time.Second, func() {
		sock.SendTo(udp.Endpoint{Addr: addrOn(nw, "bgA", "x"), Port: egp.Port}, fine)
	})
	// Check inside the hold time: a silent crafted peer legitimately
	// expires afterwards.
	nw.RunFor(3 * time.Second)
	path, ok := sA.PathTo(ipv4.MustParsePrefix("10.5.0.0/24"))
	if !ok {
		t.Fatal("clean route not installed")
	}
	if len(path) != 2 || path[0] != 9 || path[1] != 4 {
		t.Fatalf("path = %v, want [9 4]", path)
	}
}

// TestSteadyStateEchoSuppression verifies the triangle converges with no
// route to one's own prefix anywhere and sane paths everywhere (the
// split-horizon export rule keeps steady state loop-free even before the
// receiver-side check fires).
func TestSteadyStateEchoSuppression(t *testing.T) {
	nw := core.New(3)
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
	link := phys.Config{BitsPerSec: 1_544_000, Delay: 5 * time.Millisecond, MTU: 1500}
	nw.AddNet("stub1", "10.1.0.0/24", core.LAN, lan)
	nw.AddNet("x12", "192.0.1.0/24", core.P2P, link)
	nw.AddNet("x23", "192.0.2.0/24", core.P2P, link)
	nw.AddNet("x31", "192.0.3.0/24", core.P2P, link)
	nw.AddGateway("bg1", "stub1", "x12", "x31")
	nw.AddGateway("bg2", "x12", "x23")
	nw.AddGateway("bg3", "x23", "x31")
	var ss []*egp.Speaker
	for i, name := range []string{"bg1", "bg2", "bg3"} {
		s, err := egp.New(nw.Node(name), nw.UDP(name), egp.AS(i+1), fastEGP())
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	ss[0].Originate(ipv4.MustParsePrefix("10.1.0.0/24"))
	ss[0].AddPeer(addrOn(nw, "bg2", "x12"))
	ss[0].AddPeer(addrOn(nw, "bg3", "x31"))
	ss[1].AddPeer(addrOn(nw, "bg1", "x12"))
	ss[1].AddPeer(addrOn(nw, "bg3", "x23"))
	ss[2].AddPeer(addrOn(nw, "bg2", "x23"))
	ss[2].AddPeer(addrOn(nw, "bg1", "x31"))
	for _, s := range ss {
		s.Start()
	}
	nw.RunFor(30 * time.Second)
	if _, ok := ss[0].PathTo(ipv4.MustParsePrefix("10.1.0.0/24")); ok {
		t.Fatal("origin accepted an exterior route to its own prefix")
	}
	for i := 1; i <= 2; i++ {
		p, ok := ss[i].PathTo(ipv4.MustParsePrefix("10.1.0.0/24"))
		if !ok || p[len(p)-1] != 1 || len(p) != 1 {
			t.Fatalf("bg%d path = %v ok=%v, want direct [1]", i+1, p, ok)
		}
	}
}

func TestPeerExpiryWithdrawsRoutes(t *testing.T) {
	nw, speakers := threeAS(1)
	nw.RunFor(20 * time.Second)
	learned := []ipv4.Prefix{ipv4.MustParsePrefix("10.2.0.0/24"), ipv4.MustParsePrefix("10.3.0.0/24")}
	for _, p := range learned {
		if _, ok := speakers[1].PathTo(p); !ok {
			t.Fatalf("bg1 has no route to %v", p)
		}
	}
	// Silence AS2 entirely: AS1 must withdraw everything it learned.
	nw.CrashNode("bg2")
	nw.RunFor(30 * time.Second)
	for _, p := range learned {
		if _, ok := speakers[1].PathTo(p); ok {
			t.Fatalf("route to %v survived peer death", p)
		}
	}
	if counter(nw, "bg1", "peer_expiries") == 0 {
		t.Fatal("no peer expiry recorded")
	}
	if _, ok := nw.Node("bg1").Table.Lookup(nw.Addr("h3")); ok {
		t.Fatal("kernel table kept a withdrawn exterior route")
	}
}

func TestShorterPathPreferred(t *testing.T) {
	// AS1 can reach AS4 via AS2 (path length 2) or via AS2-AS3 (3).
	// Build: bg1 peers bg2 and bg3; bg2 peers bg4; bg3 peers bg2 (so
	// bg3's route to AS4 is longer). Simpler: square 1-2-4 and 1-3-2-4.
	nw := core.New(7)
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
	link := phys.Config{BitsPerSec: 1_544_000, Delay: 5 * time.Millisecond, MTU: 1500}
	nw.AddNet("stub4", "10.4.0.0/24", core.LAN, lan)
	nw.AddNet("x12", "192.0.1.0/24", core.P2P, link)
	nw.AddNet("x13", "192.0.2.0/24", core.P2P, link)
	nw.AddNet("x32", "192.0.3.0/24", core.P2P, link)
	nw.AddNet("x24", "192.0.4.0/24", core.P2P, link)
	nw.AddGateway("bg1", "x12", "x13")
	nw.AddGateway("bg2", "x12", "x32", "x24")
	nw.AddGateway("bg3", "x13", "x32")
	nw.AddGateway("bg4", "x24", "stub4")
	mk := func(name string, as egp.AS) *egp.Speaker {
		s, err := egp.New(nw.Node(name), nw.UDP(name), as, fastEGP())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2, s3, s4 := mk("bg1", 1), mk("bg2", 2), mk("bg3", 3), mk("bg4", 4)
	s4.Originate(ipv4.MustParsePrefix("10.4.0.0/24"))
	s1.AddPeer(addrOn(nw, "bg2", "x12"))
	s1.AddPeer(addrOn(nw, "bg3", "x13"))
	s2.AddPeer(addrOn(nw, "bg1", "x12"))
	s2.AddPeer(addrOn(nw, "bg3", "x32"))
	s2.AddPeer(addrOn(nw, "bg4", "x24"))
	s3.AddPeer(addrOn(nw, "bg1", "x13"))
	s3.AddPeer(addrOn(nw, "bg2", "x32"))
	s4.AddPeer(addrOn(nw, "bg2", "x24"))
	for _, s := range []*egp.Speaker{s1, s2, s3, s4} {
		s.Start()
	}
	nw.RunFor(30 * time.Second)
	path, ok := s1.PathTo(ipv4.MustParsePrefix("10.4.0.0/24"))
	if !ok {
		t.Fatal("no route at bg1")
	}
	if len(path) != 2 || path[0] != 2 || path[1] != 4 {
		t.Fatalf("path = %v, want the short way [2 4]", path)
	}
	// And failover: kill bg2 — the long way via AS3 must take over...
	// but AS3's only route was via AS2 as well; with AS2 dead nothing
	// remains, so the route disappears. Verify clean withdrawal.
	nw.CrashNode("bg2")
	nw.RunFor(30 * time.Second)
	if _, ok := s1.PathTo(ipv4.MustParsePrefix("10.4.0.0/24")); ok {
		t.Fatal("route survived the death of its only transit")
	}
}

func TestEGPYieldsToInteriorRoutes(t *testing.T) {
	// A gateway with both an interior (static) and an exterior route to
	// the same prefix must prefer the interior one.
	nw, _ := threeAS(1)
	nw.RunFor(20 * time.Second)
	bg1 := nw.Node("bg1")
	p := ipv4.MustParsePrefix("10.3.0.0/24")
	r, ok := bg1.Table.Lookup(p.Host(1))
	if !ok {
		t.Fatal("no route")
	}
	if r.Source != 0 { // stack.SourceEGP
		t.Fatalf("expected the EGP route first, got %v", r.Source)
	}
	// Now an operator installs a static route: it must win.
	via := addrOn(nw, "bg2", "x12")
	bg1.Table.Add(staticRoute(p, via, 1))
	r, _ = bg1.Table.Lookup(p.Host(1))
	if r.Source.String() != "static" {
		t.Fatalf("static did not shadow egp: %v", r.Source)
	}
}

// staticRoute builds an operator route for the preference test.
func staticRoute(p ipv4.Prefix, via ipv4.Addr, ifIndex int) stack.Route {
	return stack.Route{Prefix: p, Via: via, IfIndex: ifIndex, Metric: 1, Source: stack.SourceStatic}
}

func TestImplicitWithdrawal(t *testing.T) {
	// A transit AS that loses its downstream must stop advertising the
	// route, and its peers must drop it even though the peer session
	// itself stays healthy.
	nw, speakers := threeAS(1)
	nw.RunFor(20 * time.Second)
	if _, ok := speakers[1].PathTo(ipv4.MustParsePrefix("10.3.0.0/24")); !ok {
		t.Fatal("no initial route")
	}
	// Kill AS3's border: AS2's session to it dies, AS2 withdraws the
	// route from its own advertisements, and AS1 — whose session to AS2
	// remains alive — must lose the route by implicit withdrawal.
	nw.CrashNode("bg3")
	nw.RunFor(30 * time.Second)
	if _, ok := speakers[1].PathTo(ipv4.MustParsePrefix("10.3.0.0/24")); ok {
		t.Fatal("bg1 kept a route AS2 no longer advertises")
	}
	// AS2's own stub is still reachable: the session never dropped.
	if _, ok := speakers[1].PathTo(ipv4.MustParsePrefix("10.2.0.0/24")); !ok {
		t.Fatal("healthy route was withdrawn too")
	}
}

func TestRIPInterfaceFilter(t *testing.T) {
	// A border gateway with a filtered interface must not leak interior
	// routes across it.
	nw := core.New(2)
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
	nw.AddNet("inside", "10.1.0.0/24", core.LAN, lan)
	nw.AddNet("outside", "192.0.9.0/24", core.LAN, lan)
	nw.AddGateway("border", "inside", "outside")
	nw.AddGateway("foreign", "outside")
	nw.EnableRIP(rip.FastConfig(), "border", "foreign")
	nw.RIP("border").SetInterfaceFilter(func(ifc *stack.Interface) bool {
		return ifc.Prefix == nw.Prefix("inside")
	})
	nw.RunFor(15 * time.Second)
	// The foreign gateway must not have learned the inside prefix.
	if _, ok := nw.Node("foreign").Table.Lookup(nw.Prefix("inside").Host(1)); ok {
		t.Fatal("interior route leaked across the filtered interface")
	}
}
