package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// chainNet builds h1 - gw1 - gw2 - h2 over three P2P trunks... actually:
// lanA(h1,gw1) - trunk(gw1,gw2) - lanB(gw2,h2).
func chainNet(seed int64) *Network {
	nw := New(seed)
	nw.AddNet("lanA", "10.0.1.0/24", LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	nw.AddNet("trunk", "10.0.9.0/24", P2P, phys.Config{BitsPerSec: 1_544_000, Delay: 5 * time.Millisecond, MTU: 1500})
	nw.AddNet("lanB", "10.0.2.0/24", LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	nw.AddHost("h1", "lanA")
	nw.AddGateway("gw1", "lanA", "trunk")
	nw.AddGateway("gw2", "trunk", "lanB")
	nw.AddHost("h2", "lanB")
	return nw
}

func TestStaticRoutesEndToEnd(t *testing.T) {
	nw := chainNet(1)
	nw.InstallStaticRoutes()
	got := 0
	nw.Node("h1").Ping(nw.Addr("h2"), 3, 10*time.Millisecond, func(uint16, sim.Duration) { got++ })
	nw.RunFor(2 * time.Second)
	if got != 3 {
		t.Fatalf("replies = %d, want 3", got)
	}
}

func TestStaticRoutesMetricIsHopCount(t *testing.T) {
	nw := chainNet(1)
	nw.InstallStaticRoutes()
	r, ok := nw.Node("h1").Table.Lookup(nw.Addr("h2"))
	if !ok {
		t.Fatal("no route")
	}
	// h1 -> gw1 (dist 1) -> gw2 (dist 2) attaches lanB.
	if r.Metric != 2 {
		t.Fatalf("metric = %d, want 2", r.Metric)
	}
	if r.Via != nw.Addr("gw1") {
		t.Fatalf("via = %v, want gw1 %v", r.Via, nw.Addr("gw1"))
	}
}

func TestStaticRoutesDoNotTransitHosts(t *testing.T) {
	// h1 and h2 share lanMid with a multihomed *host* hm; routing to
	// each other's stub nets must not pass through hm.
	nw := New(1)
	nw.AddNet("stub1", "10.1.0.0/24", LAN, phys.Config{MTU: 1500})
	nw.AddNet("mid", "10.2.0.0/24", LAN, phys.Config{MTU: 1500})
	nw.AddNet("stub2", "10.3.0.0/24", LAN, phys.Config{MTU: 1500})
	nw.AddHost("hm", "stub1", "stub2") // multihomed host, not forwarding
	nw.AddHost("h1", "stub1")
	nw.AddHost("h2", "stub2")
	nw.InstallStaticRoutes()
	if _, ok := nw.Node("h1").Table.Lookup(nw.Addr("h2")); ok {
		t.Fatal("found a route that transits a non-forwarding host")
	}
}

func TestCrashAndRestoreNode(t *testing.T) {
	nw := chainNet(1)
	nw.InstallStaticRoutes()
	got := 0
	nw.CrashNode("gw1")
	nw.Node("h1").Ping(nw.Addr("h2"), 1, time.Millisecond, func(uint16, sim.Duration) { got++ })
	nw.RunFor(time.Second)
	if got != 0 {
		t.Fatal("ping crossed a crashed gateway")
	}
	nw.RestoreNode("gw1")
	nw.Node("h1").Ping(nw.Addr("h2"), 1, time.Millisecond, func(uint16, sim.Duration) { got++ })
	nw.RunFor(time.Second)
	if got != 1 {
		t.Fatal("ping failed after restore")
	}
}

func TestSetNetDown(t *testing.T) {
	nw := chainNet(1)
	nw.InstallStaticRoutes()
	got := 0
	nw.SetNetDown("trunk", true)
	nw.Node("h1").Ping(nw.Addr("h2"), 1, time.Millisecond, func(uint16, sim.Duration) { got++ })
	nw.RunFor(time.Second)
	if got != 0 {
		t.Fatal("ping crossed a cut net")
	}
	nw.SetNetDown("trunk", false)
	nw.Node("h1").Ping(nw.Addr("h2"), 1, time.Millisecond, func(uint16, sim.Duration) { got++ })
	nw.RunFor(time.Second)
	if got != 1 {
		t.Fatal("ping failed after net restore")
	}
}

func TestAddrAssignmentSequential(t *testing.T) {
	nw := New(1)
	nw.AddNet("lan", "10.5.0.0/24", LAN, phys.Config{MTU: 1500})
	nw.AddHost("a", "lan")
	nw.AddHost("b", "lan")
	nw.AddHost("c", "lan")
	if nw.Addr("a") != ipv4.MustParseAddr("10.5.0.1") ||
		nw.Addr("b") != ipv4.MustParseAddr("10.5.0.2") ||
		nw.Addr("c") != ipv4.MustParseAddr("10.5.0.3") {
		t.Fatalf("addresses: %v %v %v", nw.Addr("a"), nw.Addr("b"), nw.Addr("c"))
	}
}

// TestRadioDefaultsToPacketRadioMTU: a Radio net is a bus whose MTU,
// left unset, is the packet-radio 576 bytes rather than a LAN's 1500.
func TestRadioDefaultsToPacketRadioMTU(t *testing.T) {
	nw := New(1)
	nw.AddNet("pr", "10.6.0.0/24", Radio, phys.Config{Loss: 0.05})
	nw.AddNet("lan", "10.7.0.0/24", LAN, phys.Config{})
	nw.AddNet("big", "10.8.0.0/24", Radio, phys.Config{MTU: 1006})
	for net, want := range map[string]int{"pr": 576, "lan": 1500, "big": 1006} {
		if got := nw.Medium(net).MTU(); got != want {
			t.Errorf("%s: MTU %d, want %d", net, got, want)
		}
	}
}

// TestAttachRefusesStationPastThePrefix: a net hands out host numbers 1
// up to the one below its directed-broadcast address, and the station
// after that is refused by net name and prefix rather than given an
// address in someone else's network.
func TestAttachRefusesStationPastThePrefix(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		fits   int
	}{{"10.5.0.0/24", 254}, {"10.5.0.16/28", 14}, {"10.5.0.4/30", 2}} {
		nw := New(1)
		nw.AddNet("lan", tc.prefix, LAN, phys.Config{})
		p := nw.Prefix("lan")
		for i := 1; i <= tc.fits; i++ {
			h := nw.AddHost(fmt.Sprintf("h%d", i), "lan")
			if a := h.Addr(); a != p.Host(i) || !p.Contains(a) {
				t.Fatalf("%s: station %d got %v", tc.prefix, i, a)
			}
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, `"lan"`) || !strings.Contains(msg, tc.prefix) {
					t.Errorf("%s: station %d: %s, want a refusal naming the net and its prefix", tc.prefix, tc.fits+1, msg)
				}
			}()
			nw.AddHost("late", "lan")
		}()
	}
}

// TestCrossTrunkEndsAttachLikeP2P: a trunk registered across two region
// networks numbers its ends as the same trunk inside one network does —
// the first end to attach takes host 1 and link address 1, whichever
// region it is in.
func TestCrossTrunkEndsAttachLikeP2P(t *testing.T) {
	cfg := phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500}
	serial := New(1)
	serial.AddNet("t0", "10.9.0.0/24", P2P, cfg)
	first, second := serial.AddGateway("first", "t0").Interface(0), serial.AddGateway("second", "t0").Interface(0)

	for _, firstInA := range []bool{true, false} {
		rs := NewRegions(1, 2, 1)
		ra, rb := rs[0], rs[1]
		AddCrossTrunk(ra, rb, "t0", "10.9.0.0/24", cfg)
		rFirst, rSecond := ra, rb
		if !firstInA {
			rFirst, rSecond = rb, ra
		}
		f, s := rFirst.AddGateway("first", "t0").Interface(0), rSecond.AddGateway("second", "t0").Interface(0)
		for _, pair := range [][2]*stack.Interface{{f, first}, {s, second}} {
			got, want := pair[0], pair[1]
			if got.Addr != want.Addr || got.Prefix != want.Prefix || got.NIC.Addr() != want.NIC.Addr() || got.NIC.Name() != want.NIC.Name() {
				t.Errorf("first end in region a=%v: %s is %v link %v, on the serial trunk %v link %v",
					firstInA, got.NIC.Name(), got.Addr, got.NIC.Addr(), want.Addr, want.NIC.Addr())
			}
		}
	}
}

// TestQueueInstallReachesCrossTrunk: a gateway's boundary interface takes
// the queue its node is given, like any other — a RED queue on one end
// and priority bands on the other both see the frames that wait for the
// trunk. (SetQdisc used to have no case for a boundary half, and left it
// on the default queue without a word.)
func TestQueueInstallReachesCrossTrunk(t *testing.T) {
	cfg := phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500}
	rs := NewRegions(1, 2, 1)
	ra, rb := rs[0], rs[1]
	AddCrossTrunk(ra, rb, "t0", "10.9.0.0/24", cfg)
	ga, gb := ra.AddGateway("ga", "t0"), rb.AddGateway("gb", "t0")
	ga.InstallQueuePolicy(16, phys.PolicySpec{Kind: phys.PolicyRED})
	rb.EnablePriorityQueueing("gb", 16)

	delivered := 0
	count := func(ipv4.Header, []byte) { delivered++ }
	ga.RegisterProtocol(200, count)
	gb.RegisterProtocol(200, count)
	// Four frames each way at once: one takes the transmitter, three queue.
	for i := 0; i < 4; i++ {
		if err := ga.Send(ipv4.Header{Dst: gb.Addr(), Proto: 200}, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if err := gb.Send(ipv4.Header{Dst: ga.Addr(), Proto: 200}, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	ra.RunFor(50 * time.Millisecond)
	if delivered != 8 {
		t.Fatalf("delivered %d of 8 across the trunk", delivered)
	}
	for _, c := range []struct {
		k    *sim.Kernel
		path string
	}{
		{ra.Kernel(), "ga/aqm/enqueues"},
		{rb.Kernel(), gb.Interface(0).NIC.Name() + "/qdisc/band0_enqueues"},
	} {
		if v, ok := metrics.For(c.k).Snapshot().Get(c.path); !ok || v != 3 {
			t.Errorf("%s = %d (present=%v), want 3", c.path, v, ok)
		}
	}
}

// TestFaultSwitchesActOnTheWholeInternet: on a two-region internet,
// CrashNode and RestoreNode reach a node from either region's handle,
// and SetNetDown on a cross trunk cuts and restores both its halves.
func TestFaultSwitchesActOnTheWholeInternet(t *testing.T) {
	cfg := phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500}
	rs := NewRegions(1, 2, 1)
	ra, rb := rs[0], rs[1]
	AddCrossTrunk(ra, rb, "t0", "10.9.0.0/24", cfg)
	ra.AddGateway("ga", "t0")
	nic := rb.AddGateway("gb", "t0").Interface(0).NIC
	ra.CrashNode("gb")
	if nic.Up() {
		t.Fatal("gb's interface is up after CrashNode from the other region")
	}
	ra.RestoreNode("gb")
	if !nic.Up() {
		t.Fatal("gb's interface is down after RestoreNode from the other region")
	}
	for _, down := range []bool{true, false} {
		rb.SetNetDown("t0", down)
		for i, m := range ra.Media("t0") {
			if m.Down() != down {
				t.Errorf("SetNetDown(t0, %v): half %d of the trunk is down=%v", down, i, m.Down())
			}
		}
	}
}

func TestDuplicateNamesPanic(t *testing.T) {
	nw := New(1)
	nw.AddNet("lan", "10.5.0.0/24", LAN, phys.Config{})
	nw.AddHost("a", "lan")
	for _, fn := range []func(){
		func() { nw.AddNet("lan", "10.6.0.0/24", LAN, phys.Config{}) },
		func() { nw.AddHost("a", "lan") },
		func() { nw.AddHost("b", "nosuch") },
		func() { nw.Node("ghost") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAllPrefixesSorted(t *testing.T) {
	nw := chainNet(1)
	ps := nw.AllPrefixes()
	if len(ps) != 3 {
		t.Fatalf("prefixes = %d", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Addr > ps[i].Addr {
			t.Fatal("prefixes not sorted")
		}
	}
}

func TestNodesOrder(t *testing.T) {
	nw := chainNet(1)
	want := []string{"h1", "gw1", "gw2", "h2"}
	got := nw.Nodes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v", got)
		}
	}
}

func TestUDPLazySingleton(t *testing.T) {
	nw := chainNet(1)
	if nw.UDP("h1") != nw.UDP("h1") {
		t.Fatal("UDP transport not cached")
	}
}

// TestAttachNodeToNetRecomputesStaticRoutes pins the fix for the oracle
// silently skipping late attachments: a gateway double-homed onto a net
// *after* InstallStaticRoutes ran must become the shortest next hop, and
// a node added after the oracle ran must be routable at all.
func TestAttachNodeToNetRecomputesStaticRoutes(t *testing.T) {
	nw := chainNet(1)
	nw.InstallStaticRoutes()

	// Before: h1 reaches lanB in 2 hops via gw1/gw2.
	if r, ok := nw.Node("h1").Table.Lookup(nw.Addr("h2")); !ok || r.Metric != 2 {
		t.Fatalf("precondition: route to h2 = %+v, ok=%v, want metric 2", r, ok)
	}

	// gw1 joins lanB directly mid-run: the oracle must shorten h1's
	// route to one hop. Before the fix this attachment changed nothing.
	nw.AttachNodeToNet("gw1", "lanB")
	r, ok := nw.Node("h1").Table.Lookup(nw.Addr("h2"))
	if !ok {
		t.Fatal("no route to h2 after attach")
	}
	if r.Metric != 1 {
		t.Fatalf("metric after double-homing gw1 = %d, want 1", r.Metric)
	}
	if r.Via != nw.Addr("gw1") {
		t.Fatalf("via = %v, want gw1 %v", r.Via, nw.Addr("gw1"))
	}

	// A node added after the oracle ran gets routes too.
	nw.AddNet("lanC", "10.0.3.0/24", LAN, phys.Config{MTU: 1500})
	nw.AddHost("h3", "lanC")
	nw.AttachNodeToNet("gw2", "lanC")
	got := 0
	nw.Node("h3").Ping(nw.Addr("h1"), 2, 10*time.Millisecond, func(uint16, sim.Duration) { got++ })
	nw.RunFor(2 * time.Second)
	if got != 2 {
		t.Fatalf("h3 -> h1 replies = %d, want 2", got)
	}
}

// TestSetDefaultRouteSurvivesRecompute guards the recompute path: an
// operator-installed default route (not a topology prefix) must not be
// clobbered when the oracle recomputes.
func TestSetDefaultRouteSurvivesRecompute(t *testing.T) {
	nw := chainNet(1)
	nw.SetDefaultRoute("h1", "gw1")
	nw.InstallStaticRoutes()
	nw.AttachNodeToNet("gw2", "lanA") // triggers recompute
	r, ok := nw.Node("h1").Table.Lookup(ipv4.MustParseAddr("192.168.50.1"))
	if !ok {
		t.Fatal("default route vanished after static recompute")
	}
	if r.Prefix != ipv4.MustParsePrefix("0.0.0.0/0") {
		t.Fatalf("lookup hit %v, want the default route", r.Prefix)
	}
}
