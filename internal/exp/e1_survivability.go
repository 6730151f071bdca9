package exp

import (
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/vc"
	"darpanet/internal/workload"
)

// netHook, when non-nil, observes every core.Network a lab-topology
// builder produces before the experiment drives it. The golden-trace
// test uses it to install packet taps without changing the drivers.
var netHook func(*core.Network)

func hookNet(nw *core.Network) *core.Network {
	if netHook != nil {
		netHook(nw)
	}
	return nw
}

// squareNet builds the dual-path backbone used by E1/E4-style runs:
//
//	lanA--gwA --n1-- gwB--lanB
//	       |          |
//	      n4          n2
//	       |          |
//	      gwD --n3-- gwC
func squareNet(seed int64) *core.Network {
	nw := core.New(seed)
	trunk := phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500, QueueLimit: 64}
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 64}
	nw.AddNet("lanA", "10.1.0.0/24", core.LAN, lan)
	nw.AddNet("lanB", "10.2.0.0/24", core.LAN, lan)
	nw.AddNet("n1", "10.9.1.0/24", core.P2P, trunk)
	nw.AddNet("n2", "10.9.2.0/24", core.P2P, trunk)
	nw.AddNet("n3", "10.9.3.0/24", core.P2P, trunk)
	nw.AddNet("n4", "10.9.4.0/24", core.P2P, trunk)
	nw.AddHost("h1", "lanA")
	nw.AddHost("h2", "lanB")
	nw.AddGateway("gwA", "lanA", "n1", "n4")
	nw.AddGateway("gwB", "lanB", "n1", "n2")
	nw.AddGateway("gwC", "n2", "n3")
	nw.AddGateway("gwD", "n3", "n4")
	return hookNet(nw)
}

// e1Fault describes one fault scenario of the survivability experiment.
type e1Fault struct {
	name    string
	key     string // metric-name fragment
	inject  func(nw *core.Network, k *sim.Kernel)
	vcApply func(n *vc.Network, k *sim.Kernel)
}

// RunE1 measures the paper's first and most heavily weighted goal:
// datagram connections with endpoint-only state survive gateway failure
// (given an alternate path and routing reconvergence), while virtual
// circuits — whose state lives in the switches — are killed by the same
// fault.
func RunE1(seed int64) Result {
	const nbytes = 2_000_000
	faults := []e1Fault{
		{
			name:    "none",
			key:     "nofault",
			inject:  func(*core.Network, *sim.Kernel) {},
			vcApply: func(*vc.Network, *sim.Kernel) {},
		},
		{
			name: "crash gw on path @5s",
			key:  "crash",
			inject: func(nw *core.Network, k *sim.Kernel) {
				k.After(5*time.Second, func() { nw.CrashNode("gwB") })
			},
			vcApply: func(n *vc.Network, k *sim.Kernel) {
				k.After(5*time.Second, func() { n.CrashSwitch(110) })
			},
		},
		{
			name: "crash gw @5s, restore @25s",
			key:  "crash_restore",
			inject: func(nw *core.Network, k *sim.Kernel) {
				k.After(5*time.Second, func() { nw.CrashNode("gwB") })
				k.After(25*time.Second, func() { nw.RestoreNode("gwB") })
			},
			vcApply: func(n *vc.Network, k *sim.Kernel) {
				k.After(5*time.Second, func() { n.CrashSwitch(110) })
				k.After(25*time.Second, func() { n.RestoreSwitch(110) })
			},
		},
	}

	table := stats.Table{Header: []string{
		"architecture", "fault", "survived", "delivered", "max stall", "completed",
	}}
	res := Result{
		Notes: []string{
			"datagram rows: TCP connection state lives only in h1/h2; RIP reroutes around the dead gateway and the same connection finishes.",
			"virtual-circuit rows: per-circuit state in the crashed switch is unrecoverable; the circuit resets and its delivery stops.",
		},
	}

	for _, f := range faults {
		// --- datagram architecture -----------------------------------
		// gwB crashing would strand h2's LAN unless another gateway
		// serves it; attach gwC to lanB so an alternate path exists
		// (gwA-gwD-gwC-lanB). Hosts run RIP too, so they discover the
		// surviving gateway without manual reconfiguration.
		nw := squareNet(seed)
		nw.AttachNodeToNet("gwC", "lanB")
		nw.EnableRIP(rip.FastConfig())
		nw.RunFor(15 * time.Second) // converge
		tr := workload.StartBulk(nw, "h1", "h2", 5001, nbytes, tcp.Options{SendBufferSize: 65535})
		f.inject(nw, nw.Kernel())
		nw.RunFor(3 * time.Minute)
		table.AddRow(
			"datagram+RIP", f.name,
			yesNo(tr.Err == nil && tr.Done),
			stats.HumanBytes(uint64(tr.BytesRx)),
			fmt.Sprintf("%.1fs", tr.MaxStall.Seconds()),
			doneString(tr),
		)
		res.AddMetric("dg_"+f.key+"_survived", "", bool01(tr.Err == nil && tr.Done))
		res.AddMetric("dg_"+f.key+"_delivered", "B", float64(tr.BytesRx))
		res.AddMetric("dg_"+f.key+"_max_stall", "s", tr.MaxStall.Seconds())
		res.AddMetric("dg_"+f.key+"_done_at", "s", tr.FCT().Seconds())
		res.AddCounters("dg_"+f.key, nw.Kernel())

		// --- virtual-circuit architecture ------------------------------
		// Same shape: the preferred path h1-s100-s110-s101-h2 has an
		// intermediate switch (110) to kill, and the alternate path
		// s100-s103-s102-s101 physically survives the crash — but the
		// circuit's state died with s110, so the alternate helps only a
		// *new* call, not the existing conversation.
		k2 := sim.NewKernel(seed)
		vcn := vc.NewNetwork(k2, phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500, QueueLimit: 64})
		for _, id := range []vc.NodeID{100, 101, 110, 102, 103} {
			vcn.AddSwitch(id)
		}
		vh1 := vcn.AddHost(1, 100)
		vh2 := vcn.AddHost(2, 101)
		vcn.Connect(100, 110)
		vcn.Connect(110, 101)
		vcn.Connect(101, 102)
		vcn.Connect(102, 103)
		vcn.Connect(103, 100)
		vcn.ComputeRoutes()

		received := 0
		var reset bool
		vh2.Listen(func(c *vc.Circuit) {
			c.OnData(func(b []byte) { received += len(b) })
		})
		circ := vh1.Dial(2, nil)
		circ.OnDown(func() { reset = true })
		k2.RunFor(time.Second)
		// Stream nbytes in 1024-byte messages, paced to the trunk rate.
		chunk := make([]byte, 1024)
		msgs := nbytes / len(chunk)
		var feed func(i int)
		feed = func(i int) {
			if i >= msgs || !circ.Open() {
				return
			}
			circ.Send(chunk)
			k2.After(6*time.Millisecond, func() { feed(i + 1) })
		}
		feed(0)
		f.vcApply(vcn, k2)
		k2.RunFor(3 * time.Minute)
		vcSurvived := !reset
		table.AddRow(
			"virtual circuit", f.name,
			yesNo(vcSurvived),
			stats.HumanBytes(uint64(received)),
			"-",
			yesNo(received >= nbytes*9/10),
		)
		res.AddMetric("vc_"+f.key+"_survived", "", bool01(vcSurvived))
		res.AddMetric("vc_"+f.key+"_delivered", "B", float64(received))
		res.AddCounters("vc_"+f.key, k2)
	}

	res.Table = table
	return res
}

// yesNo renders a boolean as a table cell.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func doneString(tr *workload.Flow) string {
	if !tr.Done {
		return "no"
	}
	return fmt.Sprintf("yes @%.1fs", tr.FCT().Seconds())
}
