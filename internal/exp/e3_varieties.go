package exp

import (
	"cmp"
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/phys"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/workload"
)

// RunE3 exercises the paper's third goal: the architecture "must
// accommodate a variety of networks" by assuming only that each can carry
// a datagram. One TCP connection crosses an Ethernet-like LAN, a 56 kb/s
// ARPANET-style trunk, a lossy packet-radio net, and a tiny-MTU net in
// sequence, and the same stack is also measured over each subnet alone.
func RunE3(seed int64) Result {
	table := stats.Table{Header: []string{
		"path", "MTU min", "loss", "delivered", "goodput", "frags made", "intact",
	}}

	type leg struct {
		name string
		key  string // metric-name fragment
		kind core.NetKind
		cfg  phys.Config
	}
	legs := []leg{
		{"LAN 10 Mb/s MTU1500", "lan", core.LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 64}},
		{"serial 56 kb/s MTU296", "serial", core.P2P, phys.Config{BitsPerSec: 56_000, Delay: 20 * time.Millisecond, MTU: 296, QueueLimit: 64}},
		{"radio 100 kb/s 5% loss MTU576", "radio", core.Radio, phys.Config{BitsPerSec: 100_000, Delay: 5 * time.Millisecond, Jitter: 10 * time.Millisecond, Loss: 0.05, MTU: 576, QueueLimit: 64}},
		{"smallMTU 1 Mb/s MTU256", "tiny", core.P2P, phys.Config{BitsPerSec: 1_000_000, Delay: 2 * time.Millisecond, MTU: 256, QueueLimit: 64}},
	}

	res := Result{
		Notes: []string{
			"the sender offers MSS 1400; gateways fragment down to MTU 296 and 256 en route, and only the destination reassembles.",
			"IP asks each net only to carry a datagram: no reliability, no ordering, no common frame size.",
		},
	}

	// Single-net runs: the same stack on each technology alone.
	const single = 100_000
	for _, l := range legs {
		nw := core.New(seed)
		nw.AddNet("net", "10.1.0.0/24", l.kind, l.cfg)
		nw.AddHost("a", "net")
		nw.AddHost("b", "net")
		tr := workload.StartBulk(nw, "a", "b", 7001, single, tcp.Options{})
		nw.RunFor(5 * time.Minute)
		goodput := stats.Throughput(uint64(tr.BytesRx), cmp.Or(tr.FCT(), 5*time.Minute))
		table.AddRow(
			l.name, fmt.Sprint(l.cfg.MTU), fmt.Sprintf("%.0f%%", l.cfg.Loss*100),
			stats.HumanBytes(uint64(tr.BytesRx)), stats.HumanRate(goodput),
			"0", yesNo(tr.Done),
		)
		res.AddMetric("single_"+l.key+"_goodput", "b/s", goodput)
		res.AddMetric("single_"+l.key+"_done", "", bool01(tr.Done))
		res.AddCounters("single_"+l.key, nw.Kernel())
	}

	// The gauntlet: all four in one path, gateways between.
	nw := core.New(seed)
	nw.AddNet("lan", "10.1.0.0/24", legs[0].kind, legs[0].cfg)
	nw.AddNet("serial", "10.2.0.0/24", legs[1].kind, legs[1].cfg)
	nw.AddNet("radio", "10.3.0.0/24", legs[2].kind, legs[2].cfg)
	nw.AddNet("tiny", "10.4.0.0/24", legs[3].kind, legs[3].cfg)
	nw.AddHost("src", "lan")
	nw.AddGateway("g1", "lan", "serial")
	nw.AddGateway("g2", "serial", "radio")
	nw.AddGateway("g3", "radio", "tiny")
	nw.AddHost("dst", "tiny")
	nw.InstallStaticRoutes()

	const gauntlet = 50_000
	tr := workload.StartBulk(nw, "src", "dst", 7002, gauntlet, tcp.Options{MSS: 1400})
	nw.RunFor(10 * time.Minute)
	frags := nw.Node("g1").Stats().FragCreated + nw.Node("g2").Stats().FragCreated + nw.Node("g3").Stats().FragCreated
	goodput := stats.Throughput(uint64(tr.BytesRx), cmp.Or(tr.FCT(), 10*time.Minute))
	table.AddRow(
		"LAN>serial>radio>tiny (4 nets, 3 gw)", "256", "5% on radio",
		stats.HumanBytes(uint64(tr.BytesRx)), stats.HumanRate(goodput),
		fmt.Sprint(frags), yesNo(tr.Done),
	)
	res.AddMetric("gauntlet_goodput", "b/s", goodput)
	res.AddMetric("gauntlet_frags", "", float64(frags))
	res.AddMetric("gauntlet_done", "", bool01(tr.Done))
	res.AddCounters("gauntlet", nw.Kernel())

	res.Table = table
	return res
}
