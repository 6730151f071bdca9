package exp

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/fault"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
)

// recoveryNet is the E11 topology: the E1 dual-path backbone with gwC
// double-homed onto lanB, so every single failure in the schedule
// leaves an alternate path for routing to find.
func recoveryNet(seed int64) *core.Network {
	nw := squareNet(seed)
	nw.AttachNodeToNet("gwC", "lanB")
	return nw
}

// e11DefaultSchedule is what E11 runs when Params.Faults is unset: the
// "mixed" preset, one fault of every class.
func e11DefaultSchedule() fault.Schedule {
	s, ok := fault.Preset("mixed")
	if !ok {
		panic("exp: mixed preset missing")
	}
	return s
}

// e11With binds E11 to Params.Faults: one schedule on every replica
// seed, or a per-seed draw for RandomFaults. E11 measures recovery under
// scripted failure: a fault injector drives link cuts, a gateway
// crash/restart, an interface flap, a loss storm and a flapping trunk
// against the dual-path backbone while a bulk TCP transfer rides
// through, and reports per-event time-to-reconverge and blackout loss.
func e11With(p Params) func(seed int64) Result {
	if p.Faults == RandomFaults {
		return func(seed int64) Result { return runE11(seed, e11RandomSchedule(seed)) }
	}
	sched := or(p.Faults, e11DefaultSchedule())
	return func(seed int64) Result { return runE11(seed, sched) }
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

func runE11(seed int64, sched fault.Schedule) Result {
	const nbytes = 4_000_000
	nw := recoveryNet(seed)
	nw.EnableRIP(fastRIP())
	nw.RunFor(15 * time.Second) // initial convergence
	armAt := nw.Now()

	in := fault.New(nw, sched)
	if err := in.Arm(); err != nil {
		panic(err)
	}
	tr := StartBulkTCP(nw, "h1", "h2", 5011, nbytes, tcp.Options{SendBufferSize: 65535})
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
		ID:    "E11",
		Title: "Recovery under scripted failure (schedule: " + filepath.Base(sched.Name) + ")",
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
	res.AddMetric("tcp_delivered", "B", float64(tr.Received))
	res.AddMetric("tcp_max_stall", "s", tr.MaxStall.Seconds())
	res.AddMetric("tcp_done_at", "s", tr.ElapsedToDone().Seconds())
	res.AddCounters("", nw.Kernel())
	res.Table = table
	return res
}
