package exp

import (
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
	"darpanet/internal/workload"
)

// RunE5 quantifies the paper's admitted weakness: the cost of the
// architecture's generality. Part one is header overhead — the paper's
// own example is the 40-byte TCP/IP header on a one-byte keystroke. Part
// two is retransmission overhead: lost bytes cross the net once for
// nothing and again to be repaired, so wire bytes exceed goodput as loss
// grows.
func RunE5(seed int64) Result {
	table := stats.Table{Header: []string{
		"workload", "parameter", "app bytes", "wire bytes", "overhead",
	}}
	res := Result{
		Notes: []string{
			"a 1-byte payload costs 29 wire bytes under UDP (the paper cites 40 for TCP/IP) — the price of universal datagrams.",
			"under loss, retransmitted bytes cross the net twice and pure ACKs add more; efficiency falls as the paper concedes.",
		},
	}

	// Part 1: header overhead by payload size, measured on the wire at
	// the gateway (UDP: 8 + 20 IP; TCP adds acks too).
	for _, size := range []int{1, 64, 512, 1460} {
		nw := core.New(seed)
		lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
		nw.AddNet("a", "10.1.0.0/24", core.P2P, lan)
		nw.AddNet("b", "10.2.0.0/24", core.P2P, lan)
		nw.AddHost("src", "a")
		nw.AddGateway("gw", "a", "b")
		nw.AddHost("dst", "b")
		nw.InstallStaticRoutes()
		acct := nw.Node("gw").EnableAccounting(0)

		const count = 200
		sock, _ := nw.UDP("src").Listen(0, nil)
		nw.UDP("dst").Listen(9, func(udp.Endpoint, []byte, ipv4.Header) {})
		payload := make([]byte, size)
		for i := 0; i < count; i++ {
			i := i
			nw.Kernel().After(time.Duration(i)*5*time.Millisecond, func() {
				sock.SendTo(udp.Endpoint{Addr: nw.Addr("dst"), Port: 9}, payload)
			})
		}
		nw.RunFor(10 * time.Second)
		app := uint64(count * size)
		wire := acct.TotalBytes
		table.AddRow(
			"UDP datagrams", fmt.Sprintf("%d B payload", size),
			stats.HumanBytes(app), stats.HumanBytes(wire),
			stats.Pct(wire-app, wire),
		)
		res.AddMetric(fmt.Sprintf("udp_overhead_%db", size), "%", 100*float64(wire-app)/float64(wire))
		res.AddCounters(fmt.Sprintf("udp_%db", size), nw.Kernel())
	}

	// Part 2: TCP efficiency vs loss. Wire bytes at the gateway divided
	// by delivered application bytes: retransmissions cross twice.
	for _, loss := range []float64{0, 0.02, 0.05, 0.10} {
		nw := core.New(seed)
		cfg := phys.Config{BitsPerSec: 2_000_000, Delay: 5 * time.Millisecond, MTU: 1500, QueueLimit: 64}
		lossy := cfg
		lossy.Loss = loss
		nw.AddNet("a", "10.1.0.0/24", core.P2P, cfg)
		nw.AddNet("b", "10.2.0.0/24", core.P2P, lossy)
		nw.AddHost("src", "a")
		nw.AddGateway("gw", "a", "b")
		nw.AddHost("dst", "b")
		nw.InstallStaticRoutes()
		acct := nw.Node("gw").EnableAccounting(0)

		const nbytes = 300_000
		tr := workload.StartBulk(nw, "src", "dst", 5005, nbytes, tcp.Options{})
		nw.RunFor(10 * time.Minute)
		wire := acct.TotalBytes // both directions: data + acks
		app := uint64(tr.BytesRx)
		table.AddRow(
			"TCP bulk", fmt.Sprintf("%.0f%% loss", loss*100),
			stats.HumanBytes(app), stats.HumanBytes(wire),
			stats.Pct(wire-app, wire),
		)
		res.AddMetric(fmt.Sprintf("tcp_overhead_loss%d", int(loss*100)), "%", 100*float64(wire-app)/float64(wire))
		res.AddMetric(fmt.Sprintf("tcp_delivered_loss%d", int(loss*100)), "B", float64(app))
		res.AddCounters(fmt.Sprintf("tcp_loss%d", int(loss*100)), nw.Kernel())
	}

	res.Table = table
	return res
}
