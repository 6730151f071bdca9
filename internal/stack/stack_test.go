package stack

import (
	"testing"
	"time"

	"darpanet/internal/icmp"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// lineTopo builds  h1 --l1-- gw --l2-- h2  with /24 nets 10.0.1.0 and
// 10.0.2.0 and static routes, returning the kernel and nodes.
func lineTopo(t *testing.T, mtu1, mtu2 int) (*sim.Kernel, *Node, *Node, *Node) {
	t.Helper()
	k := sim.NewKernel(1)
	l1 := phys.NewP2P(k, "l1", phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: mtu1})
	l2 := phys.NewP2P(k, "l2", phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: mtu2})

	h1 := NewNode(k, "h1")
	gw := NewNode(k, "gw")
	gw.Forwarding = true
	h2 := NewNode(k, "h2")

	net1 := ipv4.MustParsePrefix("10.0.1.0/24")
	net2 := ipv4.MustParsePrefix("10.0.2.0/24")

	i1 := h1.AttachInterface(l1, net1.Host(1), net1)
	g1 := gw.AttachInterface(l1, net1.Host(254), net1)
	g2 := gw.AttachInterface(l2, net2.Host(254), net2)
	i2 := h2.AttachInterface(l2, net2.Host(1), net2)

	i1.AddNeighbor(g1.Addr, g1.NIC.Addr())
	g1.AddNeighbor(i1.Addr, i1.NIC.Addr())
	g2.AddNeighbor(i2.Addr, i2.NIC.Addr())
	i2.AddNeighbor(g2.Addr, g2.NIC.Addr())

	h1.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g1.Addr, IfIndex: 0, Source: SourceStatic})
	h2.Table.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: g2.Addr, IfIndex: 0, Source: SourceStatic})
	return k, h1, gw, h2
}

func TestPingAcrossGateway(t *testing.T) {
	k, h1, gw, h2 := lineTopo(t, 1500, 1500)
	var rtts []sim.Duration
	h1.Ping(h2.Addr(), 3, 100*time.Millisecond, func(seq uint16, rtt sim.Duration) {
		rtts = append(rtts, rtt)
	})
	k.RunFor(2 * time.Second)
	if len(rtts) != 3 {
		t.Fatalf("replies = %d, want 3", len(rtts))
	}
	for _, rtt := range rtts {
		// 4 link traversals at ~1 ms each plus serialization.
		if rtt < 4*time.Millisecond || rtt > 10*time.Millisecond {
			t.Fatalf("rtt = %v out of range", rtt)
		}
	}
	if gw.Stats().Forwarded != 6 {
		t.Fatalf("gateway forwarded = %d, want 6", gw.Stats().Forwarded)
	}
	if got := h2.Stats().InDelivers; got != 3 {
		t.Fatalf("h2 delivered = %d, want 3", got)
	}
}

func TestForwardingOffDropsTransit(t *testing.T) {
	k, h1, gw, h2 := lineTopo(t, 1500, 1500)
	gw.Forwarding = false
	got := 0
	h1.Ping(h2.Addr(), 1, time.Millisecond, func(uint16, sim.Duration) { got++ })
	k.RunFor(time.Second)
	if got != 0 {
		t.Fatal("ping succeeded through non-forwarding node")
	}
	if gw.Stats().NotForwarder != 1 {
		t.Fatalf("NotForwarder = %d, want 1", gw.Stats().NotForwarder)
	}
}

func TestFragmentationEnRoute(t *testing.T) {
	// Second link has a smaller MTU: the gateway must fragment, and h2
	// must reassemble, invisibly to the sender.
	k, h1, gw, h2 := lineTopo(t, 1500, 296)
	var got []byte
	const proto = 200
	h2.RegisterProtocol(proto, func(h ipv4.Header, payload []byte) {
		got = append(got[:0], payload...) // payload is pooled; copy to retain
	})
	payload := make([]byte, 1200)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := h1.Send(ipv4.Header{Dst: h2.Addr(), Proto: proto}, payload); err != nil {
		t.Fatal(err)
	}
	k.RunFor(time.Second)
	if len(got) != len(payload) {
		t.Fatalf("received %d bytes, want %d", len(got), len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	if gw.Stats().FragCreated < 4 {
		t.Fatalf("FragCreated = %d, want >= 4", gw.Stats().FragCreated)
	}
	if h2.Reassembler().Stats().Fragments < 4 {
		t.Fatal("h2 did not see fragments")
	}
}

func TestTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	k, h1, _, h2 := lineTopo(t, 1500, 1500)
	var gotErr *IcmpError
	h1.OnIcmpError(func(e IcmpError) { gotErr = &e })
	const proto = 77
	h1.Send(ipv4.Header{Dst: h2.Addr(), Proto: proto, TTL: 1}, []byte("doomed"))
	k.RunFor(time.Second)
	if gotErr == nil {
		t.Fatal("no ICMP error delivered")
	}
	if gotErr.Type != icmp.TypeTimeExceeded {
		t.Fatalf("type = %d, want time-exceeded", gotErr.Type)
	}
	if gotErr.Original.Dst != h2.Addr() || gotErr.Original.Proto != proto {
		t.Fatalf("quoted header wrong: %+v", gotErr.Original)
	}
}

func TestNoRouteGeneratesNetUnreachable(t *testing.T) {
	k, h1, _, _ := lineTopo(t, 1500, 1500)
	var gotErr *IcmpError
	h1.OnIcmpError(func(e IcmpError) { gotErr = &e })
	// 10.0.3.1 is not routed at the gateway (it only knows its two nets).
	h1.Send(ipv4.Header{Dst: ipv4.MustParseAddr("10.0.3.1"), Proto: 77}, []byte("lost"))
	k.RunFor(time.Second)
	if gotErr == nil {
		t.Fatal("no ICMP error delivered")
	}
	if gotErr.Type != icmp.TypeDestUnreachable || gotErr.Code != icmp.CodeNetUnreachable {
		t.Fatalf("got type=%d code=%d", gotErr.Type, gotErr.Code)
	}
}

func TestLocalSendNoRouteError(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNode(k, "lonely")
	if err := n.Send(ipv4.Header{Dst: ipv4.MustParseAddr("1.2.3.4"), Proto: 9}, nil); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestProtoUnreachable(t *testing.T) {
	k, h1, _, h2 := lineTopo(t, 1500, 1500)
	var gotErr *IcmpError
	h1.OnIcmpError(func(e IcmpError) { gotErr = &e })
	h1.Send(ipv4.Header{Dst: h2.Addr(), Proto: 123}, []byte("nobody home"))
	k.RunFor(time.Second)
	if gotErr == nil || gotErr.Code != icmp.CodeProtoUnreachable {
		t.Fatalf("gotErr = %+v, want proto-unreachable", gotErr)
	}
	if h2.Stats().NoProto != 1 {
		t.Fatal("NoProto not counted")
	}
}

func TestRouteTableLPM(t *testing.T) {
	var tbl RouteTable
	tbl.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Via: ipv4.MustParseAddr("10.0.0.1"), IfIndex: 0, Source: SourceStatic})
	tbl.Add(Route{Prefix: ipv4.MustParsePrefix("10.1.0.0/16"), Via: ipv4.MustParseAddr("10.0.0.2"), IfIndex: 1, Source: SourceStatic})
	tbl.Add(Route{Prefix: ipv4.MustParsePrefix("10.1.2.0/24"), Via: ipv4.MustParseAddr("10.0.0.3"), IfIndex: 2, Source: SourceStatic})

	cases := []struct {
		dst  string
		ifid int
	}{
		{"10.1.2.7", 2},
		{"10.1.9.7", 1},
		{"192.168.0.1", 0},
	}
	for _, c := range cases {
		r, ok := tbl.Lookup(ipv4.MustParseAddr(c.dst))
		if !ok || r.IfIndex != c.ifid {
			t.Fatalf("Lookup(%s) = %+v ok=%v, want if%d", c.dst, r, ok, c.ifid)
		}
	}
}

func TestRouteTableSourcePreference(t *testing.T) {
	var tbl RouteTable
	p := ipv4.MustParsePrefix("10.1.0.0/16")
	tbl.Add(Route{Prefix: p, Via: ipv4.MustParseAddr("1.1.1.1"), Source: SourceRIP, Metric: 2})
	tbl.Add(Route{Prefix: p, Via: ipv4.MustParseAddr("2.2.2.2"), Source: SourceStatic, Metric: 10})
	r, ok := tbl.Lookup(ipv4.MustParseAddr("10.1.5.5"))
	if !ok || r.Source != SourceStatic {
		t.Fatalf("static should win: %+v", r)
	}
	tbl.Remove(p, SourceStatic)
	r, ok = tbl.Lookup(ipv4.MustParseAddr("10.1.5.5"))
	if !ok || r.Source != SourceRIP {
		t.Fatalf("rip should remain: %+v", r)
	}
}

func TestRouteTableReplaceSameSource(t *testing.T) {
	var tbl RouteTable
	p := ipv4.MustParsePrefix("10.1.0.0/16")
	tbl.Add(Route{Prefix: p, Via: ipv4.MustParseAddr("1.1.1.1"), Source: SourceRIP, Metric: 5})
	tbl.Add(Route{Prefix: p, Via: ipv4.MustParseAddr("3.3.3.3"), Source: SourceRIP, Metric: 2})
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replaced)", tbl.Len())
	}
	r, _ := tbl.Lookup(ipv4.MustParseAddr("10.1.0.1"))
	if r.Via != ipv4.MustParseAddr("3.3.3.3") {
		t.Fatal("replacement did not take")
	}
}

func TestDownInterfaceSkippedAtLookup(t *testing.T) {
	k, h1, gw, h2 := lineTopo(t, 1500, 1500)
	_ = h1
	// Give the gateway a second (useless) route to h2's net via a
	// downed interface with longer prefix; lookup must skip it.
	gw.Interface(1).NIC.SetUp(false)
	r, ok := gw.Table.Lookup(h2.Addr())
	if ok {
		t.Fatalf("lookup found unusable route: %+v", r)
	}
	gw.Interface(1).NIC.SetUp(true)
	if _, ok := gw.Table.Lookup(h2.Addr()); !ok {
		t.Fatal("route not restored")
	}
	_ = k
}

func TestPingStopCancels(t *testing.T) {
	k, h1, _, h2 := lineTopo(t, 1500, 1500)
	n := 0
	stop := h1.Ping(h2.Addr(), 10, 50*time.Millisecond, func(uint16, sim.Duration) { n++ })
	k.RunFor(120 * time.Millisecond) // ~2-3 probes out
	stop()
	k.RunFor(2 * time.Second)
	if n == 0 || n > 3 {
		t.Fatalf("replies after stop = %d", n)
	}
}

func TestFlowAccounting(t *testing.T) {
	k, h1, gw, h2 := lineTopo(t, 1500, 1500)
	acct := gw.EnableAccounting(0)
	const proto = 50
	h2.RegisterProtocol(proto, func(ipv4.Header, []byte) {})
	for i := 0; i < 5; i++ {
		h1.Send(ipv4.Header{Dst: h2.Addr(), Proto: proto}, make([]byte, 100))
	}
	k.RunFor(time.Second)
	if acct.TotalPackets != 5 {
		t.Fatalf("TotalPackets = %d, want 5", acct.TotalPackets)
	}
	key := FlowKey{Src: h1.Addr(), Dst: h2.Addr(), Proto: proto}
	c, ok := acct.flows[key]
	if !ok || c.Packets != 5 || c.Bytes != 5*(100+ipv4.HeaderLen) {
		t.Fatalf("flow counters = %+v ok=%v", c, ok)
	}
}

func TestFlowAccountingCapUnattributed(t *testing.T) {
	k, h1, gw, h2 := lineTopo(t, 1500, 1500)
	acct := gw.EnableAccounting(2)
	h2.RegisterProtocol(60, func(ipv4.Header, []byte) {})
	h2.RegisterProtocol(61, func(ipv4.Header, []byte) {})
	h2.RegisterProtocol(62, func(ipv4.Header, []byte) {})
	for _, proto := range []uint8{60, 61, 62} {
		h1.Send(ipv4.Header{Dst: h2.Addr(), Proto: proto}, make([]byte, 10))
	}
	k.RunFor(time.Second)
	if acct.Flows() != 2 {
		t.Fatalf("Flows = %d, want 2 (capped)", acct.Flows())
	}
	if acct.UnattributedPackets != 1 {
		t.Fatalf("Unattributed = %d, want 1", acct.UnattributedPackets)
	}
	if acct.TotalPackets != 3 {
		t.Fatalf("TotalPackets = %d, want 3", acct.TotalPackets)
	}
}

func TestGatewayCrashSurvivesStateless(t *testing.T) {
	// Crash the gateway (all interfaces down), then bring it back. The
	// gateway has no per-conversation state, so traffic resumes without
	// any reestablishment: fate-sharing in action.
	k, h1, gw, h2 := lineTopo(t, 1500, 1500)
	got := 0
	h2.RegisterProtocol(70, func(ipv4.Header, []byte) { got++ })

	h1.Send(ipv4.Header{Dst: h2.Addr(), Proto: 70}, []byte("pre"))
	k.RunFor(100 * time.Millisecond)

	for _, ifc := range gw.Interfaces() {
		ifc.NIC.SetUp(false)
	}
	h1.Send(ipv4.Header{Dst: h2.Addr(), Proto: 70}, []byte("lost"))
	k.RunFor(100 * time.Millisecond)

	for _, ifc := range gw.Interfaces() {
		ifc.NIC.SetUp(true)
	}
	h1.Send(ipv4.Header{Dst: h2.Addr(), Proto: 70}, []byte("post"))
	k.RunFor(100 * time.Millisecond)

	if got != 2 {
		t.Fatalf("delivered = %d, want 2 (pre and post crash)", got)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	lan := phys.NewBus(k, "lan", phys.Config{MTU: 1500})
	net := ipv4.MustParsePrefix("10.0.5.0/24")
	var nodes []*Node
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		n := NewNode(k, "h")
		n.AttachInterface(lan, net.Host(i+1), net)
		n.RegisterProtocol(90, func(h ipv4.Header, p []byte) { counts[i]++ })
		nodes = append(nodes, n)
	}
	nodes[0].Send(ipv4.Header{Dst: ipv4.Broadcast, Proto: 90}, []byte("to all"))
	k.RunFor(time.Second)
	if counts[0] != 0 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestRouteStringAndTableString(t *testing.T) {
	var tbl RouteTable
	tbl.Add(Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/8"), Via: ipv4.MustParseAddr("1.2.3.4"), IfIndex: 1, Metric: 3, Source: SourceRIP})
	tbl.Add(Route{Prefix: ipv4.MustParsePrefix("10.0.1.0/24"), IfIndex: 0, Source: SourceDirect})
	s := tbl.String()
	if s == "" {
		t.Fatal("empty table dump")
	}
	if len(tbl.Routes()) != 2 {
		t.Fatal("Routes() wrong length")
	}
}

func TestClassifyPrecedence(t *testing.T) {
	dg := []byte{0x45, ipv4.PrecNetControl}
	if classifyPrecedence(dg) != 7 {
		t.Fatal("net control should classify to band 7")
	}
	if classifyPrecedence([]byte{0x60, 0x00}) != 0 {
		t.Fatal("non-IPv4 should classify to band 0")
	}
	if classifyPrecedence(nil) != 0 {
		t.Fatal("empty should classify to band 0")
	}
}
