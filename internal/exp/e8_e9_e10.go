package exp

import (
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
	"darpanet/internal/vc"
	"darpanet/internal/workload"
)

// RunE8 measures the datagram's "entry level" service (paper §8): a host
// can send its first useful byte with no setup at all, while the
// virtual-circuit architecture must first build state in every switch on
// the path. First-byte latency vs path length, for raw UDP, TCP (which
// chooses to pay a handshake), and VC call setup.
func RunE8(seed int64) Result {
	table := stats.Table{Header: []string{
		"hops", "UDP first byte", "TCP first byte (3WH)", "VC setup + first byte",
	}}
	res := Result{
		Notes: []string{
			"the raw datagram needs one one-way trip; TCP chooses to pay 1.5 RTT for its own reasons; the circuit must install state in every switch before any data moves — and the gap grows with path length.",
		},
	}

	for _, hops := range []int{1, 2, 4, 6} {
		cfg := phys.Config{BitsPerSec: 1_544_000, Delay: 5 * time.Millisecond, MTU: 1500}

		// Datagram chain: src - gw1 - ... - gw(hops-1) - dst.
		nw := core.New(seed)
		nets := []string{}
		for i := 0; i <= hops; i++ {
			name := fmt.Sprintf("n%d", i)
			nw.AddNet(name, fmt.Sprintf("10.%d.0.0/24", i+1), core.P2P, cfg)
			nets = append(nets, name)
		}
		nw.AddHost("src", nets[0])
		for i := 0; i < hops; i++ {
			nw.AddGateway(fmt.Sprintf("g%d", i), nets[i], nets[i+1])
		}
		nw.AddHost("dst", nets[hops])
		nw.InstallStaticRoutes()

		// UDP: one datagram, stamp arrival.
		var udpAt sim.Duration = -1
		nw.UDP("dst").Listen(9, func(_ udp.Endpoint, _ []byte, _ ipv4.Header) {
			if udpAt < 0 {
				udpAt = nw.Now().Sub(0)
			}
		})
		s, _ := nw.UDP("src").Listen(0, nil)
		start := nw.Now()
		s.SendTo(udp.Endpoint{Addr: nw.Addr("dst"), Port: 9}, []byte("first"))
		nw.RunFor(5 * time.Second)
		udpLatency := udpAt - start.Sub(0)

		// TCP: handshake then one byte.
		var tcpAt sim.Duration = -1
		tcpStart := nw.Now()
		nw.TCP("dst").Listen(80, tcp.Options{}, func(c *tcp.Conn) {
			c.OnData(func([]byte) {
				if tcpAt < 0 {
					tcpAt = nw.Now().Sub(tcpStart)
				}
			})
		})
		conn, _ := nw.TCP("src").Dial(tcp.Endpoint{Addr: nw.Addr("dst"), Port: 80}, tcp.Options{})
		conn.OnEstablished(func() { conn.Write([]byte("x")) })
		nw.RunFor(5 * time.Second)

		// VC: setup then one byte, over the same chain shape.
		k2 := sim.NewKernel(seed)
		vcn := vc.NewNetwork(k2, cfg)
		for i := 0; i < hops; i++ {
			vcn.AddSwitch(vc.NodeID(100 + i))
		}
		vh1 := vcn.AddHost(1, 100)
		vh2 := vcn.AddHost(2, vc.NodeID(100+hops-1))
		for i := 0; i < hops-1; i++ {
			vcn.Connect(vc.NodeID(100+i), vc.NodeID(100+i+1))
		}
		vcn.ComputeRoutes()
		var vcAt sim.Duration = -1
		vh2.Listen(func(c *vc.Circuit) {
			c.OnData(func([]byte) {
				if vcAt < 0 {
					vcAt = k2.Now().Sub(0)
				}
			})
		})
		circ := vh1.Dial(2, func(ok bool) {})
		// Send as soon as the circuit opens.
		var wait func()
		wait = func() {
			if circ.Open() {
				circ.Send([]byte("x"))
				return
			}
			k2.After(time.Millisecond, wait)
		}
		wait()
		k2.RunFor(5 * time.Second)

		table.AddRow(fmt.Sprint(hops),
			msStr(udpLatency), msStr(tcpAt), msStr(vcAt))
		res.AddMetric(fmt.Sprintf("udp_first_byte_%dhops", hops), "ms", msVal(udpLatency))
		res.AddMetric(fmt.Sprintf("tcp_first_byte_%dhops", hops), "ms", msVal(tcpAt))
		res.AddMetric(fmt.Sprintf("vc_first_byte_%dhops", hops), "ms", msVal(vcAt))
		res.AddCounters(fmt.Sprintf("dg_%dhops", hops), nw.Kernel())
		res.AddCounters(fmt.Sprintf("vc_%dhops", hops), k2)
	}

	res.Table = table
	return res
}

// msVal converts a latency to milliseconds for a metric, preserving the
// "never arrived" sentinel as -1.
func msVal(d sim.Duration) float64 {
	if d < 0 {
		return -1
	}
	return float64(d) / 1e6
}

func msStr(d sim.Duration) string {
	if d < 0 {
		return "never"
	}
	return fmt.Sprintf("%.1f ms", float64(d)/1e6)
}

// RunE9 isolates the paper's §9 argument for byte (not packet) sequence
// numbers: a sender that accumulated many small unacknowledged segments
// may combine them into one larger segment when retransmitting. The
// workload writes keystroke-sized chunks into a dead link, then lets
// retransmission deliver them.
func RunE9(seed int64) Result {
	run := func(repacketize bool) (segs, retrans uint64, completed sim.Duration, k *sim.Kernel) {
		nw := core.New(seed)
		cfg := phys.Config{BitsPerSec: 256_000, Delay: 10 * time.Millisecond, MTU: 1500, QueueLimit: 64}
		nw.AddNet("n", "10.1.0.0/24", core.P2P, cfg)
		nw.AddHost("a", "n")
		nw.AddHost("b", "n")
		link := nw.Medium("n").(*phys.P2P)

		opts := tcp.Options{NoNagle: true, NoDelayedAck: true, NoRepacketize: !repacketize, MSS: 1000}
		received := 0
		var doneAt sim.Time
		nw.TCP("b").Listen(80, opts, func(c *tcp.Conn) {
			c.OnData(func(b []byte) {
				received += len(b)
				doneAt = nw.Now()
			})
		})
		conn, _ := nw.TCP("a").Dial(tcp.Endpoint{Addr: nw.Addr("b"), Port: 80}, opts)
		ready := false
		conn.OnEstablished(func() { ready = true })
		nw.RunFor(time.Second)
		if !ready {
			panic("e9: no establish")
		}
		// Cut the link and type 40 keystroke bursts (30 bytes each):
		// they transmit into the void as small segments.
		link.SetDown(true)
		for i := 0; i < 40; i++ {
			i := i
			nw.Kernel().After(time.Duration(i)*10*time.Millisecond, func() {
				conn.Write(workload.PatternBytes(30))
			})
		}
		nw.RunFor(3 * time.Second)
		link.SetDown(false)
		nw.RunFor(2 * time.Minute)
		if received != 40*30 {
			panic(fmt.Sprintf("e9: incomplete transfer: %d", received))
		}
		st := conn.Stats()
		return st.SegsSent, st.Retransmits, doneAt.Sub(sim.Time(4 * time.Second)), nw.Kernel()
	}

	withSegs, withRetr, withDone, withK := run(true)
	woSegs, woRetr, woDone, woK := run(false)

	table := stats.Table{Header: []string{
		"retransmission policy", "segments sent", "retransmissions", "recovery time after link restore",
	}}
	table.AddRow("repacketize (byte seq nums)", fmt.Sprint(withSegs), fmt.Sprint(withRetr), fmt.Sprintf("%.2fs", withDone.Seconds()))
	table.AddRow("original boundaries (packet-style)", fmt.Sprint(woSegs), fmt.Sprint(woRetr), fmt.Sprintf("%.2fs", woDone.Seconds()))

	res := Result{
		Table: table,
		Notes: []string{
			"with byte sequence numbers the 40 stranded keystroke segments are retransmitted as ~2 MSS-size segments; a packet-sequenced protocol must resend all 40 tiny packets one timeout at a time.",
		},
	}
	res.AddMetric("repack_segs", "", float64(withSegs))
	res.AddMetric("repack_retrans", "", float64(withRetr))
	res.AddMetric("repack_recovery", "s", withDone.Seconds())
	res.AddMetric("orig_segs", "", float64(woSegs))
	res.AddMetric("orig_retrans", "", float64(woRetr))
	res.AddMetric("orig_recovery", "s", woDone.Seconds())
	res.AddCounters("repack", withK)
	res.AddCounters("orig", woK)
	return res
}

// RunE10 runs the ablation the paper's era demanded: the same bottleneck
// and the same offered load, with congestion control (Van Jacobson, added
// the year the paper appeared) on and off.
func RunE10(seed int64) Result {
	run := func(cc string, senders int) (aggregate float64, retrRatio string, drops uint64, k *sim.Kernel) {
		nw := core.New(seed)
		lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 128}
		trunk := phys.Config{BitsPerSec: 512_000, Delay: 20 * time.Millisecond, MTU: 1500, QueueLimit: 16}
		nw.AddNet("lanA", "10.1.0.0/24", core.LAN, lan)
		nw.AddNet("lanB", "10.2.0.0/24", core.LAN, lan)
		nw.AddNet("trunk", "10.9.0.0/24", core.P2P, trunk)
		for i := 0; i < senders; i++ {
			nw.AddHost(fmt.Sprintf("s%d", i), "lanA")
		}
		nw.AddHost("sink", "lanB")
		nw.AddGateway("g1", "lanA", "trunk")
		nw.AddGateway("g2", "trunk", "lanB")
		nw.InstallStaticRoutes()

		opts := tcp.Options{Congestion: cc, SendBufferSize: 65535}
		// More than the bottleneck can carry in the window: every
		// sender stays backlogged throughout, so aggregate goodput
		// reads as link utilization.
		const each = 8_000_000
		const window = 2 * time.Minute
		var transfers []*workload.Flow
		for i := 0; i < senders; i++ {
			transfers = append(transfers, workload.StartBulk(nw, fmt.Sprintf("s%d", i), "sink", uint16(5100+i), each, opts))
		}
		nw.RunFor(window)
		var recv, sent, retr uint64
		for _, tr := range transfers {
			recv += uint64(tr.BytesRx)
			if tr.Conn != nil {
				st := tr.Conn.Stats()
				sent += st.BytesSent
				retr += st.BytesRetrans
			}
		}
		link := nw.Medium("trunk").(*phys.P2P)
		return stats.Throughput(recv, window), stats.Pct(retr, sent+retr), link.Drops, nw.Kernel()
	}

	table := stats.Table{Header: []string{
		"senders", "congestion control", "aggregate goodput", "retrans ratio", "bottleneck drops",
	}}
	res := Result{
		Notes: []string{
			"without VJ control the senders drive the bottleneck queue to overflow and pay for it in retransmissions — the congestion collapse the 1986-88 Internet actually suffered.",
		},
	}
	for _, senders := range []int{1, 4, 8} {
		for _, cc := range []string{tcp.CCReno, tcp.CCNaive} {
			label := "VJ (slow start + AIMD)"
			key := "vj"
			if cc == tcp.CCNaive {
				label = "none (pre-1988)"
				key = "nocc"
			}
			g, r, d, k := run(cc, senders)
			table.AddRow(fmt.Sprint(senders), label, stats.HumanRate(g), r, fmt.Sprint(d))
			res.AddMetric(fmt.Sprintf("goodput_%dsenders_%s", senders, key), "b/s", g)
			res.AddMetric(fmt.Sprintf("drops_%dsenders_%s", senders, key), "", float64(d))
			res.AddCounters(fmt.Sprintf("%dsenders_%s", senders, key), k)
		}
	}

	res.Table = table
	return res
}
