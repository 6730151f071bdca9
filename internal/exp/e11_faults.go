package exp

import (
	"fmt"
	"math/rand"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/fault"
	"darpanet/internal/rip"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/workload"
)

// recoveryNet is the E11 topology: the E1 dual-path backbone with gwC
// double-homed onto lanB, so every single failure in the schedule
// leaves an alternate path for routing to find.
func recoveryNet(seed int64) *core.Network {
	nw := squareNet(seed)
	nw.AttachNodeToNet("gwC", "lanB")
	return nw
}

// preset is the named fault preset, which must exist.
func preset(name string) *fault.Schedule {
	s, ok := fault.Preset(name)
	if !ok {
		panic("exp: no fault preset " + name)
	}
	return &s
}

// e11RandomSchedule draws the seed's own failure scenario.
func e11RandomSchedule(seed int64) fault.Schedule {
	rng := rand.New(rand.NewSource(seed))
	return fault.Random(rng, fault.RandomOptions{
		Nets: []string{"n1", "n2", "n3", "n4"},
		// Not gwA: it is lanA's only gateway, so crashing it leaves no
		// alternate path and the scenario measures nothing but absence.
		Nodes:     []string{"gwB", "gwC", "gwD"},
		Episodes:  4,
		Start:     5 * time.Second,
		Spread:    80 * time.Second,
		MinDwell:  5 * time.Second,
		MaxDwell:  20 * time.Second,
		StormLoss: 0.3,
	})
}

// runE11 measures recovery under scripted failure: a fault injector
// drives link cuts, a gateway crash/restart, an interface flap, a loss
// storm and a flapping trunk against the dual-path backbone while a bulk
// TCP transfer rides through, and reports per-event time-to-reconverge
// and blackout loss. p.Faults is one schedule replayed on every replica
// seed, or RandomFaults for a per-seed draw.
func runE11(seed int64, p Params) Result {
	sched := *p.Faults
	if p.Faults == RandomFaults {
		sched = e11RandomSchedule(seed)
	}
	const nbytes = 4_000_000
	nw := recoveryNet(seed)
	nw.EnableRIP(rip.FastConfig())
	nw.RunFor(15 * time.Second) // initial convergence
	armAt := nw.Now()

	in := fault.New(nw, sched)
	if err := in.Arm(); err != nil {
		panic(err)
	}
	tr := workload.StartBulk(nw, "h1", "h2", 5011, nbytes, tcp.Options{SendBufferSize: 65535})
	nw.RunFor(4 * time.Minute)

	table := stats.Table{Header: []string{"t", "fault", "target", "reconverged", "after", "lost frames"}}
	for _, ev := range in.Events() {
		target := ev.Target
		if ev.Op == fault.OpIfDown || ev.Op == fault.OpIfUp {
			target = fmt.Sprintf("%s#%d", ev.Target, ev.Index)
		}
		rec, after := "no", "-"
		if ev.Reconverged {
			rec = "yes"
			after = fmt.Sprintf("%.2fs", ev.ReconvergeAfter.Seconds())
		}
		table.AddRow(
			fmt.Sprintf("%.0fs", ev.At.Sub(armAt).Seconds()),
			ev.Op.String(), target, rec, after,
			fmt.Sprintf("%d", ev.LostInWindow),
		)
	}

	res := Result{
		Notes: []string{
			"each row is one injected fault; 'after' is the time until every running RIP router again holds working routes to everything the topology oracle says it can reach — stale routes through a dead gateway do not count.",
			"'lost frames' counts frames swallowed inside the blackout window the event closed (heal and restore rows).",
			fmt.Sprintf("a %s TCP transfer h1→h2 rides through the whole schedule; with an alternate path per fault it must survive them all.", stats.HumanBytes(nbytes)),
		},
	}
	for _, m := range in.Metrics() {
		res.AddMetric(m.Name, m.Unit, m.Value)
	}
	res.AddMetric("tcp_survived", "", bool01(tr.Err == nil && tr.Done))
	res.AddMetric("tcp_delivered", "B", float64(tr.BytesRx))
	res.AddMetric("tcp_max_stall", "s", tr.MaxStall.Seconds())
	res.AddMetric("tcp_done_at", "s", tr.FCT().Seconds())
	res.AddCounters("", nw.Kernel())
	res.Table = table
	return res
}
