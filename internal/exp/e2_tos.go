package exp

import (
	"cmp"
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/nvp"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/workload"
	"darpanet/internal/xnet"
)

// e2Result captures one service's metric under one queueing discipline.
type e2Result struct {
	k          *sim.Kernel // the run's kernel, for counter export
	tcpGoodput float64
	udpRTTms   float64
	udpLossPct float64
	xnetOps    int
	xnetResent uint64
	voiceMiss  float64
	voiceDelay float64
}

// RunE2 demonstrates the paper's second goal: one datagram layer carrying
// four services with incompatible needs — a reliable bulk stream (TCP),
// low-latency query/response (UDP), a cross-net debugger (XNET), and
// real-time voice (NVP) — all crossing one congested trunk, with and
// without gateways honouring the ToS precedence bits.
func RunE2(seed int64) Result {
	run := func(priority bool) e2Result {
		nw := core.New(seed)
		lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 64}
		trunk := phys.Config{BitsPerSec: 512_000, Delay: 10 * time.Millisecond, MTU: 1500, QueueLimit: 30}
		nw.AddNet("lanA", "10.1.0.0/24", core.LAN, lan)
		nw.AddNet("lanB", "10.2.0.0/24", core.LAN, lan)
		nw.AddNet("trunk", "10.9.0.0/24", core.P2P, trunk)
		nw.AddHost("alice", "lanA")
		nw.AddHost("bob", "lanB")
		nw.AddGateway("gw1", "lanA", "trunk")
		nw.AddGateway("gw2", "trunk", "lanB")
		nw.InstallStaticRoutes()
		if priority {
			nw.EnablePriorityQueueing("gw1", 30)
			nw.EnablePriorityQueueing("gw2", 30)
		}

		// Service 1: TCP bulk at routine precedence, enough to
		// saturate the 512 kb/s trunk for the whole run.
		tr := workload.StartBulk(nw, "alice", "bob", 6001, 2_000_000,
			tcp.Options{TOS: ipv4.TOSHighThroughput, SendBufferSize: 65535})

		// Service 2: UDP query/response at low-delay ToS... precedence
		// is what the priority qdisc uses, so stamp a mid precedence.
		// (The udp socket TOS knob.)
		qd := workload.StartQueries(nw, "alice", "bob", 6002, 200, 100*time.Millisecond, 64, 0x40|ipv4.TOSLowDelay)

		// Service 3: XNET debugging of bob from alice.
		xc := xnet.NewClient(nw.Node("alice"))
		xnet.NewTarget(nw.Node("bob"), 4096)
		xnetOK := 0
		var probe func(i int)
		probe = func(i int) {
			if i >= 100 {
				return
			}
			xc.Peek(nw.Addr("bob"), uint32(i), 16, func(_ []byte, err error) {
				if err == nil {
					xnetOK++
				}
			})
			nw.Kernel().After(200*time.Millisecond, func() { probe(i + 1) })
		}
		probe(0)

		// Service 4: NVP voice at critical precedence.
		recv := nvp.NewReceiver(nw.Node("bob"), 7)
		recv.PlayoutDelay = 150 * time.Millisecond
		snd := nvp.NewSender(nw.Node("alice"), nw.Addr("bob"), 7)
		snd.TOS = ipv4.PrecCritical | ipv4.TOSLowDelay
		snd.Start(20 * time.Second)

		nw.RunFor(60 * time.Second)

		var udpRTT stats.Sample
		for _, r := range qd.RTTs {
			udpRTT.Add(float64(r) / 1e6) // ms
		}
		vs := recv.Stats()
		return e2Result{
			k:          nw.Kernel(),
			tcpGoodput: stats.Throughput(uint64(tr.BytesRx), cmp.Or(tr.FCT(), 60*time.Second)),
			udpRTTms:   udpRTT.Percentile(50),
			udpLossPct: 100 * float64(qd.Sent-len(qd.RTTs)) / float64(max(qd.Sent, 1)),
			xnetOps:    xnetOK,
			xnetResent: xc.Resent,
			voiceMiss:  100 * float64(vs.Late+vs.Lost) / float64(max(snd.Sent, 1)),
			voiceDelay: float64(vs.MeanDelay()) / 1e6,
		}
	}

	fifo := run(false)
	prio := run(true)

	table := stats.Table{Header: []string{"service", "metric", "FIFO gateway", "ToS-priority gateway"}}
	table.AddRow("TCP bulk", "goodput",
		stats.HumanRate(fifo.tcpGoodput), stats.HumanRate(prio.tcpGoodput))
	table.AddRow("UDP query", "median RTT",
		fmt.Sprintf("%.1f ms", fifo.udpRTTms), fmt.Sprintf("%.1f ms", prio.udpRTTms))
	table.AddRow("UDP query", "loss",
		fmt.Sprintf("%.1f%%", fifo.udpLossPct), fmt.Sprintf("%.1f%%", prio.udpLossPct))
	table.AddRow("XNET debug", "ops completed (of 100)",
		fmt.Sprint(fifo.xnetOps), fmt.Sprint(prio.xnetOps))
	table.AddRow("XNET debug", "retransmissions",
		fmt.Sprint(fifo.xnetResent), fmt.Sprint(prio.xnetResent))
	table.AddRow("NVP voice", "deadline miss+loss",
		fmt.Sprintf("%.1f%%", fifo.voiceMiss), fmt.Sprintf("%.1f%%", prio.voiceMiss))
	table.AddRow("NVP voice", "mean one-way delay",
		fmt.Sprintf("%.1f ms", fifo.voiceDelay), fmt.Sprintf("%.1f ms", prio.voiceDelay))

	res := Result{
		Table: table,
		Notes: []string{
			"every service uses the same IP datagrams; only the transport above and the ToS octet differ — the reason TCP split from IP.",
			"with FIFO queueing the bulk stream's queue ruins voice; ToS precedence isolates it without the network knowing what 'voice' is.",
		},
	}
	for _, v := range []struct {
		key string
		r   e2Result
	}{{"fifo", fifo}, {"prio", prio}} {
		res.AddMetric(v.key+"_tcp_goodput", "b/s", v.r.tcpGoodput)
		res.AddMetric(v.key+"_udp_rtt_p50", "ms", v.r.udpRTTms)
		res.AddMetric(v.key+"_udp_loss", "%", v.r.udpLossPct)
		res.AddMetric(v.key+"_xnet_ops", "", float64(v.r.xnetOps))
		res.AddMetric(v.key+"_xnet_resent", "", float64(v.r.xnetResent))
		res.AddMetric(v.key+"_voice_miss", "%", v.r.voiceMiss)
		res.AddMetric(v.key+"_voice_delay", "ms", v.r.voiceDelay)
		res.AddCounters(v.key, v.r.k)
	}
	return res
}
