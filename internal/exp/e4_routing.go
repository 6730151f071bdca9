package exp

import (
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
)

// gridNet builds a 3x3 gateway grid, each gateway also owning a stub LAN
// — a 12-network internet run by nine "administrations".
func gridNet(seed int64) *core.Network {
	nw := core.New(seed)
	trunk := phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500, QueueLimit: 64}
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
	// Stub LANs and gateways.
	for i := 0; i < 9; i++ {
		nw.AddNet(fmt.Sprintf("stub%d", i), fmt.Sprintf("10.%d.0.0/24", 10+i), core.LAN, lan)
	}
	// Trunks: horizontal and vertical grid edges.
	edge := 0
	addTrunk := func() string {
		name := fmt.Sprintf("t%d", edge)
		nw.AddNet(name, fmt.Sprintf("10.9.%d.0/24", edge), core.P2P, trunk)
		edge++
		return name
	}
	type trunkDef struct {
		a, b int
		name string
	}
	var trunks []trunkDef
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			i := r*3 + c
			if c < 2 {
				trunks = append(trunks, trunkDef{i, i + 1, addTrunk()})
			}
			if r < 2 {
				trunks = append(trunks, trunkDef{i, i + 3, addTrunk()})
			}
		}
	}
	for i := 0; i < 9; i++ {
		nets := []string{fmt.Sprintf("stub%d", i)}
		for _, td := range trunks {
			if td.a == i || td.b == i {
				nets = append(nets, td.name)
			}
		}
		nw.AddGateway(fmt.Sprintf("gw%d", i), nets...)
	}
	return hookNet(nw)
}

// RunE4 measures the paper's distributed-management goal: nine gateways
// compute consistent routes by gossip alone, re-converge after failures,
// and pay a measurable message overhead for it — against the
// centrally-computed static oracle that costs nothing and repairs
// nothing.
func RunE4(seed int64) Result {
	table := stats.Table{Header: []string{
		"event", "scheme", "reconverged", "time to converge", "routing msgs", "routing bytes",
	}}

	cfg := fastRIP()

	// Cold start.
	nw := gridNet(seed)
	nw.EnableRIP(cfg)
	msgsAt := func() (uint64, uint64) {
		var msgs, bytes uint64
		for _, name := range nw.Nodes() {
			st := nw.RIP(name).Stats()
			msgs += st.UpdatesSent
			bytes += st.EntriesSent * 6
		}
		return msgs, bytes
	}
	coldTime := timeUntil(nw, 60*time.Second, nw.Converged)
	m1, b1 := msgsAt()
	table.AddRow("cold start", "distance vector", yesNo(coldTime >= 0),
		durStr(coldTime), fmt.Sprint(m1), stats.HumanBytes(b1))

	// Link failure: cut the trunk between gw0 and gw1. Convergence is
	// declared when traffic actually flows again: a probe from gw0 to
	// gw1's stub address comes back.
	nw.RunFor(5 * time.Second)
	preMsgs, preBytes := msgsAt()
	nw.SetNetDown("t0", true)
	failTime := timeUntil(nw, 2*time.Minute, pingWorks(nw, "gw0", nw.Prefix("stub1").Host(1)))
	m2, b2 := msgsAt()
	linkcutMsgs := m2 - preMsgs
	table.AddRow("link cut", "distance vector", yesNo(failTime >= 0),
		durStr(failTime), fmt.Sprint(linkcutMsgs), stats.HumanBytes(b2-preBytes))

	// Gateway crash: gw4 (the center) dies; corner-to-corner traffic
	// that favoured the center must route around it.
	nw.RunFor(5 * time.Second)
	preMsgs, preBytes = msgsAt()
	nw.CrashNode("gw4")
	crashTime := timeUntil(nw, 2*time.Minute, func() bool {
		// All pairwise corner probes flow.
		okAll := true
		for _, pair := range [][2]string{{"gw0", "stub8"}, {"gw2", "stub6"}, {"gw6", "stub2"}, {"gw8", "stub0"}} {
			if !pingWorks(nw, pair[0], nw.Prefix(pair[1]).Host(1))() {
				okAll = false
			}
		}
		return okAll
	})
	m3, b3 := msgsAt()
	crashMsgs := m3 - preMsgs
	table.AddRow("gateway crash", "distance vector", yesNo(crashTime >= 0),
		durStr(crashTime), fmt.Sprint(crashMsgs), stats.HumanBytes(b3-preBytes))

	// The static oracle: free and instant, but repairs nothing.
	nw2 := gridNet(seed)
	nw2.InstallStaticRoutes()
	table.AddRow("cold start", "static oracle", "yes", "0.0s", "0", "0 B")
	nw2.SetNetDown("t0", true)
	nw2.RunFor(2 * time.Minute)
	// gw0's route to stub1 still points at the dead trunk.
	r, ok := nw2.Node("gw0").Table.Lookup(nw2.Prefix("stub1").Host(1))
	repaired := ok && r.Metric > 1
	table.AddRow("link cut", "static oracle", yesNo(repaired), "never", "0", "0 B")

	res := Result{
		Table: table,
		Notes: []string{
			"distance-vector gossip costs periodic messages forever, but heals every failure without any central authority — the trade the architecture chose.",
		},
	}
	res.AddMetric("cold_converged", "", bool01(coldTime >= 0))
	res.AddMetric("cold_converge_time", "s", coldTime.Seconds())
	res.AddMetric("cold_msgs", "", float64(m1))
	res.AddMetric("cold_bytes", "B", float64(b1))
	res.AddMetric("linkcut_reconverged", "", bool01(failTime >= 0))
	res.AddMetric("linkcut_reconverge_time", "s", failTime.Seconds())
	res.AddMetric("linkcut_msgs", "", float64(linkcutMsgs))
	res.AddMetric("crash_reconverged", "", bool01(crashTime >= 0))
	res.AddMetric("crash_reconverge_time", "s", crashTime.Seconds())
	res.AddMetric("crash_msgs", "", float64(crashMsgs))
	res.AddMetric("static_linkcut_repaired", "", bool01(repaired))
	res.AddCounters("dv", nw.Kernel())
	res.AddCounters("static", nw2.Kernel())
	return res
}

// pingWorks returns a probe: send one echo from node to dst and report
// whether a reply arrives within half a second. Each call advances the
// simulation by its probe window.
func pingWorks(nw *core.Network, from string, dst ipv4.Addr) func() bool {
	return func() bool {
		got := false
		stop := nw.Node(from).Ping(dst, 1, time.Millisecond, func(uint16, sim.Duration) { got = true })
		nw.RunFor(500 * time.Millisecond)
		stop()
		return got
	}
}

// timeUntil advances the network until cond holds (returning the elapsed
// simulated time) or the deadline passes (returning -1).
func timeUntil(nw *core.Network, deadline sim.Duration, cond func() bool) sim.Duration {
	start := nw.Now()
	step := 100 * time.Millisecond
	for nw.Now().Sub(start) < deadline {
		if cond() {
			return nw.Now().Sub(start)
		}
		nw.RunFor(step)
	}
	if cond() {
		return nw.Now().Sub(start)
	}
	return -1
}

func durStr(d sim.Duration) string {
	if d < 0 {
		return "never"
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}
