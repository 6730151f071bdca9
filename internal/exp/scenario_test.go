package exp

import (
	"strings"
	"testing"
	"time"

	"darpanet/internal/fault"
	"darpanet/internal/metrics"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
)

// FuzzScenario: any string is either refused or parses to a Params
// whose String is a fixed point of parse∘render — a file-named schedule
// and a percentage that does not print back exactly included.
func FuzzScenario(f *testing.F) {
	for _, s := range []string{
		"topo=transitstub:gw=3,stubs=4,hosts=1,mix=0;qdisc=droptail+ecn;cc=naive+newreno",
		"topo=transitstub:gw=3,stubs=2,hosts=1,mix=0;fracs=10,20",
		"workload=naive=1,alpha=1.1,min=30000,max=2000000",
		" faults=mixed ; fracs=7 ; cc=reno ",
		"faults=random;workload=cc=tahoe,ecn=1;topo=waxman:gw=12,alpha=0.25,beta=0.4,hosts=1,mix=0",
		"faults=testdata/e11_crash_flap.faults",
		"qdisc=red:min=64,max=256,maxp=0.1,wq=0.002+ecn",
		"fracs=7,33.3,0.1,100,1e-05",
		"cc=vegas", "topo=ring:gw=4;topo=ring:gw=5", "fracs=0", "workload=think_ms=-3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		// A faults value is a path the parser reads; keep the fuzzer off
		// device and process files, which may block or never end.
		if strings.Contains(text, "/dev") || strings.Contains(text, "/proc") || strings.Contains(text, "/sys") {
			t.Skip()
		}
		p, err := ParseParams(text)
		if err != nil {
			return
		}
		s := p.String()
		back, err := ParseParams(s)
		if err != nil {
			t.Fatalf("%q parses to %q, which is refused: %v", text, s, err)
		}
		if got := back.String(); got != s {
			t.Fatalf("%q parses to %q, which parses to %q", text, s, got)
		}
	})
}

// FuzzScheduleRuns takes schedule text through fault.Parse and Arm to a
// run: E11's internet under RIP, carrying one bulk TCP transfer, for a
// bounded simulated time. Every input is refused at Parse or Arm, or
// runs to the end with no panic and a frame ledger that closes (Δ = 0).
func FuzzScheduleRuns(f *testing.F) {
	for _, name := range fault.PresetNames() {
		s, _ := fault.Preset(name)
		f.Add(s.String())
	}
	f.Add("0s crash h1\n1s crash h2\n2s restore h1\n3s ifdown gwC 2\n3s ifup gwC 2\n4s cut lanB\n")
	f.Fuzz(func(t *testing.T, text string) {
		sched, err := fault.Parse("fuzz", text)
		if err != nil {
			return
		}
		nw := recoveryNet(1)
		nw.EnableRIP(fastRIP())
		nw.RunFor(10 * time.Second)
		if err := fault.New(nw, sched).Arm(); err != nil {
			return
		}
		StartBulkTCP(nw, "h1", "h2", 5011, 300_000, tcp.Options{SendBufferSize: 65535})
		nw.RunFor(40 * time.Second)
		if _, delta := frameLedger(metrics.For(nw.Kernel()).Snapshot()); delta != 0 {
			t.Fatalf("schedule\n%s\nleaves frame ledger Δ = %d", sched, delta)
		}
	})
}

// FuzzScenarioRuns takes scenario text through ParseParams and With into
// E14's driver, which reads the topo, workload and fracs chains, with a
// 2 s admission window and reconvergence window. An input that would
// build more than 64 nodes, or admit more than about 2 000 flows, is
// skipped; every other input is refused or runs to the end with no panic
// and a frame ledger that closes (ledger_delta 0) in every cell.
func FuzzScenarioRuns(f *testing.F) {
	for _, s := range []string{
		// The README's scenario examples.
		"topo=transitstub:gw=3,stubs=4,hosts=1,mix=0;qdisc=droptail+ecn;cc=naive+newreno",
		"topo=waxman:gw=24,hosts=2;fracs=5,15,30;faults=random",
		"topo=transitstub:gw=3,stubs=2,hosts=1,mix=0;fracs=10,20",
		"topo=waxman:gw=12,alpha=0.25,beta=0.4,hosts=1,mix=0",
		"topo=tree:gw=31,degree=2", "topo=line:gw=16", "topo=ring:gw=64",
		"workload=bulk=.7,inter=.1,rr=.15,voice=.05,rate=10,alpha=1.3,min=4000,max=1e6",
		"workload=naive=1,alpha=1.1,min=30000,max=2000000", "workload=vj=1,max=60000",
		"qdisc=droptail+red+ecn;cc=naive+tahoe+reno+newreno", "fracs=5,15,30",
		// Found by the fuzzer: a steep size tail overflowed the analytic
		// mean, so E14 calibrated its arrival rate to zero and the
		// engine refused it.
		"workload=naive=1,alpha=90",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		// A faults value is a path the parser reads; keep the fuzzer off
		// device and process files, which may block or never end.
		if strings.Contains(text, "/dev") || strings.Contains(text, "/proc") || strings.Contains(text, "/sys") {
			t.Skip()
		}
		p, err := ParseParams(text)
		if err != nil {
			return
		}
		p.Window, p.Drain = 2*time.Second, 2*time.Second
		e, err := row("E14").With(p)
		if err != nil {
			return
		}
		sc := e.scenario
		if sp := *sc.Topo; sp.Gateways > 64 || sp.StubsPer > 64 || sp.Hosts > 64 || len(topo.ManifestOnly(sp, 1).NodeDefs) > 64 {
			t.Skip("more than 64 nodes")
		}
		perSec := e14Load * e13RefBps / sc.Workload.WithRate(1).OfferedBps()
		// Written to skip a NaN estimate too.
		if flows := perSec * sc.Window.Seconds() * float64(1+2*len(sc.Fracs)); !(flows <= 2000) {
			t.Skip("more than 2000 flows")
		}
		for _, m := range e.Run(1).Metrics {
			if m.Path.Leaf == "ledger_delta" && m.Value != 0 {
				t.Fatalf("scenario %q: %s = %g", text, m.Name, m.Value)
			}
		}
	})
}
