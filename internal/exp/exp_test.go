package exp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"darpanet/internal/fault"
	"darpanet/internal/phys"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	if len(All) != 17 {
		t.Fatalf("experiments = %d, want 17", len(All))
	}
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.drive == nil || e.Title == "" {
			t.Fatalf("%s incomplete", e.ID)
		}
	}
	if _, ok := ByID("E5"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID invented an experiment")
	}
}

// row returns the registered experiment id.
func row(id string) Experiment {
	e, ok := ByID(id)
	if !ok {
		panic("no experiment " + id)
	}
	return e
}

// The experiment smoke tests assert the *shape* of each result — who
// wins, roughly by how much — matching the reproduction contract in
// EXPERIMENTS.md. Full determinism is asserted at the repo root.

func cell(r Result, row, col int) string { return r.Table.Rows[row][col] }

func TestE1Shape(t *testing.T) {
	r := RunE1(1988)
	// Row layout: pairs of (datagram, vc) per fault; fault #2 is the
	// gateway crash.
	if cell(r, 2, 2) != "yes" {
		t.Fatalf("datagram connection did not survive the crash: %v", r.Table.Rows[2])
	}
	if cell(r, 3, 2) != "no" {
		t.Fatalf("virtual circuit survived a switch crash: %v", r.Table.Rows[3])
	}
}

func TestE2Shape(t *testing.T) {
	r := RunE2(1988)
	// ToS precedence at the gateways must spare voice the bulk stream's queue.
	if prio, fifo := metric(t, r, "prio_voice_miss"), metric(t, r, "fifo_voice_miss"); prio >= fifo {
		t.Fatalf("voice missed %v%% of deadlines with priority queueing, %v%% without", prio, fifo)
	}
}

func TestE3Shape(t *testing.T) {
	r := RunE3(1988)
	// Every net carries the transfer alone, and all four in one path,
	// where the gateways must fragment the sender's 1400-byte segments.
	for _, name := range []string{"single_lan_done", "single_serial_done", "single_radio_done", "single_tiny_done", "gauntlet_done"} {
		if metric(t, r, name) != 1 {
			t.Fatalf("%s: the transfer did not complete", name)
		}
	}
	if metric(t, r, "gauntlet_frags") == 0 {
		t.Fatal("no gateway on the gauntlet fragmented")
	}
}

func TestE4Shape(t *testing.T) {
	r := RunE4(1988)
	// Distance-vector routing repairs a cut link and a crashed gateway
	// with no central control; static routes leave the cut unrepaired.
	for _, name := range []string{"linkcut_reconverged", "crash_reconverged"} {
		if metric(t, r, name) != 1 {
			t.Fatalf("%s: RIP never reconverged", name)
		}
	}
	if metric(t, r, "static_linkcut_repaired") != 0 {
		t.Fatal("static routes repaired a cut link")
	}
}

func TestE6Shape(t *testing.T) {
	r := RunE6(1988)
	// A naive host's TCP costs the shared gateway more drops than a
	// well-behaved one does.
	if naive, good := metric(t, r, "naive_partner_drops"), metric(t, r, "good_partner_drops"); naive <= good {
		t.Fatalf("the naive partner caused %v drops, the good one %v", naive, good)
	}
}

func TestE7Shape(t *testing.T) {
	r := RunE7(1988)
	// Attribution falls strictly as the gateway's flow table shrinks:
	// unlimited, then capped at 36, 8 and 1 entries.
	prev := 101.0
	for _, limit := range []int{0, 36, 8, 1} {
		got := metric(t, r, fmt.Sprintf("attributed_limit%d", limit))
		if got >= prev {
			t.Fatalf("a table of %d attributes %.1f%% of packets, not less than the %.1f%% of the larger one", limit, got, prev)
		}
		prev = got
	}
}

func TestE9Shape(t *testing.T) {
	r := RunE9(1988)
	// Repacketization must need strictly fewer retransmissions.
	with, without := metric(t, r, "repack_retrans"), metric(t, r, "orig_retrans")
	if with >= without {
		t.Fatalf("repacketization took %v retransmissions, the original segmentation %v", with, without)
	}
}

func TestE8Shape(t *testing.T) {
	r := RunE8(1988)
	// Every first byte arrives, UDP's strictly before the circuit's at
	// every hop count, and the circuit's lag grows with the path.
	gap := 0.0
	for _, hops := range []int{1, 2, 4, 6} {
		udp := metric(t, r, fmt.Sprintf("udp_first_byte_%dhops", hops))
		vc := metric(t, r, fmt.Sprintf("vc_first_byte_%dhops", hops))
		tcp := metric(t, r, fmt.Sprintf("tcp_first_byte_%dhops", hops))
		if udp < 0 || vc < 0 || tcp < 0 {
			t.Fatalf("%d hops: a first byte never arrived (udp %v, tcp %v, vc %v ms)", hops, udp, tcp, vc)
		}
		if vc-udp <= gap {
			t.Fatalf("%d hops: VC lags UDP by %.1fms, not more than the %.1fms of the shorter path", hops, vc-udp, gap)
		}
		gap = vc - udp
	}
}

// lookup returns the named metric of r (0, false when absent).
func lookup(r Result, name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// metric returns the named metric of r, failing the test if r lacks it.
func metric(t *testing.T, r Result, name string) float64 {
	t.Helper()
	v, ok := lookup(r, name)
	if !ok {
		t.Fatalf("no metric %q", name)
	}
	return v
}

// TestEveryExperimentEmitsMetrics pins the campaign contract on the
// drivers: every experiment records named scalar metrics with unique
// names and finite values, in a fixed order, so replicas aggregate
// cleanly in internal/harness.
func TestEveryExperimentEmitsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run(7)
			if len(r.Metrics) == 0 {
				t.Fatalf("%s emitted no metrics", e.ID)
			}
			seen := map[string]bool{}
			for _, m := range r.Metrics {
				if m.Name == "" {
					t.Fatalf("%s has an unnamed metric", e.ID)
				}
				if seen[m.Name] {
					t.Fatalf("%s metric %q duplicated", e.ID, m.Name)
				}
				seen[m.Name] = true
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Fatalf("%s metric %q = %v", e.ID, m.Name, m.Value)
				}
			}
		})
	}
}

func TestAddMetricAndBool01(t *testing.T) {
	var r Result
	r.AddMetric("a", "ms", 1.5)
	r.AddMetric("b", "", bool01(true))
	if len(r.Metrics) != 2 || r.Metrics[0].Unit != "ms" {
		t.Fatalf("metrics = %+v", r.Metrics)
	}
	if bool01(true) != 1 || bool01(false) != 0 {
		t.Fatal("bool01")
	}
}

func TestYesNoAndHelpers(t *testing.T) {
	if yesNo(true) != "yes" || yesNo(false) != "no" {
		t.Fatal("yesNo")
	}
	if durStr(-1) != "never" {
		t.Fatal("durStr negative")
	}
	if durStr(1500*time.Millisecond) != "1.5s" {
		t.Fatalf("durStr = %q", durStr(1500*time.Millisecond))
	}
	if msStr(-1) != "never" {
		t.Fatal("msStr negative")
	}
}

func TestE11Shape(t *testing.T) {
	r := row("E11").Run(1988)
	get := func(name string) float64 {
		v, ok := lookup(r, name)
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		return v
	}
	if got := get("events_injected"); got != 12 {
		t.Fatalf("events_injected = %g, want 12 (mixed preset)", got)
	}
	if get("tcp_survived") != 1 {
		t.Fatal("transfer did not survive the mixed schedule")
	}
	if got := get("tcp_delivered"); got < 4_000_000 {
		t.Fatalf("tcp_delivered = %g, want >= 4MB", got)
	}
	if v := get("reconverge_mean_s"); v <= 0 || v > 30 {
		t.Fatalf("reconverge_mean_s = %g, want (0, 30]", v)
	}
	if get("blackout_lost_frames") == 0 {
		t.Fatal("no frames lost across blackout windows — loss accounting broken")
	}
	// Most events recover before the next one fires; only the fast flap
	// cuts are legitimately superseded.
	if got := get("events_reconverged"); got < 8 {
		t.Fatalf("events_reconverged = %g, want >= 8", got)
	}
}

// TestWithBindsOnlyWhatAnExperimentTakes pins Experiment.With: keys an
// experiment does not take leave its title untouched, keys it takes
// suffix Title in the scenario form — Shards leaves no trace in a
// report — every field left zero keeps the recorded value, and values
// the text form refuses, or a negative count, are rejected.
func TestWithBindsOnlyWhatAnExperimentTakes(t *testing.T) {
	spec := topo.Spec{Shape: topo.Waxman, Gateways: 12, Alpha: 0.25, Beta: 0.4, Hosts: 1}

	e1 := row("E1")
	got, err := e1.With(Params{Topo: &spec, Shards: 2, Fracs: []float64{0.1}})
	if err != nil || got.Title != e1.Title {
		t.Fatalf("E1 takes no parameter but With changed its title: %q, %v", got.Title, err)
	}

	e15 := row("E15")
	got, err = e15.With(Params{Shards: 2})
	if err != nil || got.Title != e15.Title || got.scenario.Shards != 2 || got.scenario.Regions != e15.scenario.Regions {
		t.Fatalf("E15 with Shards: title %q (want unchanged), scenario %+v, err %v", got.Title, got.scenario, err)
	}

	e13 := row("E13")
	got, err = e13.With(Params{CCs: []string{tcp.CCReno}})
	if want := e13.Title + " [cc=reno]"; err != nil || got.Title != want || got.scenario.Policies[0] != e13.scenario.Policies[0] {
		t.Fatalf("E13 with cc: title %q, want %q; scenario %+v (err %v)", got.Title, want, got.scenario, err)
	}

	e13t := row("E13-T")
	got, err = e13t.With(Params{Topo: &spec, Policies: []phys.PolicySpec{{Kind: phys.PolicyECN}}})
	if want := e13t.Title + " [topo=" + spec.String() + ";qdisc=ecn]"; err != nil || got.Title != want {
		t.Fatalf("E13-T title = %q, want %q (err %v)", got.Title, want, err)
	}
	if !reflect.DeepEqual(got.scenario.CCs, e13t.scenario.CCs) || got.scenario.Window != e13t.scenario.Window {
		t.Fatalf("E13-T with topo and qdisc lost its recorded cc axis or window: %+v", got.scenario)
	}
	e14 := row("E14")
	got, err = e14.With(Params{Topo: &spec, Fracs: []float64{0.1, 0.25, 0.07}, Policies: []phys.PolicySpec{{Kind: phys.PolicyECN}}})
	if want := e14.Title + " [topo=" + spec.String() + ";fracs=10,25,7.000000000000001]"; err != nil || got.Title != want {
		t.Fatalf("E14 title = %q, want %q (err %v)", got.Title, want, err)
	}
	if *got.scenario.Topo != spec || got.scenario.Workload != e14.scenario.Workload || got.scenario.Drain != e14.scenario.Drain {
		t.Fatalf("E14 scenario %+v: want the given topo over the recorded workload and drain", got.scenario)
	}

	for _, bad := range []Params{{CCs: []string{"vegas"}}, {Fracs: []float64{1.5}}, {Fracs: []float64{0.1, 0.1}}, {Topo: &topo.Spec{Shape: "blob"}}, {Shards: -1}} {
		if _, err := e14.With(bad); err == nil {
			t.Fatalf("With(%+v) accepted", bad)
		}
	}

	// A schedule in hand is not read again: With neither opens a file
	// named like one nor refuses a schedule built in Go.
	e11 := row("E11")
	for _, name := range []string{"testdata/no-such-file.faults", "built-in-go"} {
		got, err = e11.With(Params{Faults: &fault.Schedule{Name: name}})
		if want := e11.Title + " [faults=" + name + "]"; err != nil || got.Title != want {
			t.Fatalf("E11 with a Go-built schedule %q: title %q, want %q (err %v)", name, got.Title, want, err)
		}
	}
}

// TestRunStampsTheRowTitle: a run's result carries the row's ID and
// title, With's tag included, so a report's heading and its export's
// title are one string.
func TestRunStampsTheRowTitle(t *testing.T) {
	e8 := row("E8")
	if r := e8.Run(1988); r.ID != "E8" || r.Title != e8.Title {
		t.Fatalf("E8 result is %q — %q, want the row's %q", r.ID, r.Title, e8.Title)
	}
	e11, err := row("E11").With(Params{Faults: preset("crash")})
	if err != nil {
		t.Fatal(err)
	}
	if r := e11.Run(1988); r.Title != e11.Title || !strings.HasSuffix(r.Title, " [faults=crash]") {
		t.Fatalf("E11 with the crash preset: result title %q, want %q", r.Title, e11.Title)
	}
}

// TestParseParamsRefuses: every refusal names the scenario and the term
// whole — a key given twice, a key no table has, and a value its own
// grammar refuses — and a blank scenario is the zero Params.
// TestE15RefusesATopoItCannotCast: a topo that places fewer than two
// directory replicas, or whose replicas own every stub LAN, used to pass
// With and fail every replica with a panic in E15's driver.
func TestE15RefusesATopoItCannotCast(t *testing.T) {
	e15 := row("E15")
	for text, want := range map[string]string{
		"topo=transitstub:gw=6,stubs=3,hosts=2,dirs=1": "E15: topo=transitstub:gw=6,stubs=3,hosts=2,mix=1,dirs=1 places 1 directory replica(s): want dirs >= 2",
		"topo=transitstub:gw=6,stubs=3,hosts=2":        "E15: topo=transitstub:gw=6,stubs=3,hosts=2,mix=1 places 0 directory replica(s): want dirs >= 2",
		"topo=waxman:gw=12,hosts=1,dirs=1":             "E15: topo=waxman:gw=12,alpha=0.25,beta=0.4,hosts=1,mix=1,dirs=1 places 1 directory replica(s): want dirs >= 2",
		"topo=transitstub:gw=1,stubs=2,hosts=2,dirs=2": "E15: topo=transitstub:gw=1,stubs=2,hosts=2,mix=1,dirs=2: its 2 dirs own every stub LAN",
		"topo=ring:gw=3,hosts=1,dirs=3":                "E15: topo=ring:gw=3,hosts=1,mix=1,dirs=3: its 3 dirs own every stub LAN",
	} {
		p, err := ParseParams(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e15.With(p); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("E15.With(%q): error %v, want %q…", text, err, want)
		}
	}
	for _, text := range []string{"", "topo=ring:gw=3,hosts=1,dirs=2", "topo=transitstub:gw=3,stubs=2,hosts=2,mix=0,dirs=2"} {
		p, err := ParseParams(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e15.With(p); err != nil {
			t.Errorf("E15.With(%q): %v", text, err)
		}
	}
}

func TestParseParamsRefuses(t *testing.T) {
	for text, want := range map[string]string{
		"cc=vegas":               "scenario: cc=vegas: want one of naive, newreno, reno, tahoe",
		"cc=reno+":               "scenario: cc=reno+: want one of",
		"fracs=0":                "scenario: fracs=0: want percentages in (0,100]",
		"fracs=10,101":           "scenario: fracs=10,101: want percentages in (0,100]",
		"fracs=NaN":              "scenario: fracs=NaN: not a finite number",
		"qdisc=red+blue":         `scenario: qdisc=red+blue: policy: unknown kind "blue"`,
		"topo=ring:gw=4,gw=5":    "scenario: topo=ring:gw=4,gw=5: topo: gw=5: key given twice",
		"workload=think_ms=-1":   "scenario: workload=think_ms=-1: workload: think_ms=-1: want",
		"faults=nowhere":         "scenario: faults=nowhere: not a preset (crash, flap, mixed, partition), random, or a readable file",
		"faults=mixed;faults=x":  "scenario: faults=x: key given twice",
		"shards=2":               "scenario: shards=2: unknown key (keys: topo, workload, faults, qdisc, cc, fracs)",
		"topo=ring:gw=4,fracs=5": "scenario: topo=ring:gw=4,fracs=5: topo: fracs=5: unknown key",
		// A metric path names a cell by its policy kind, its congestion
		// response or its percentage: two cells alike in it would merge.
		"qdisc=red:min=5,max=15+red:min=50,max=150": "scenario: qdisc=red:min=5,max=15+red:min=50,max=150: red given twice",
		"qdisc=droptail+":    "scenario: qdisc=droptail+: droptail given twice",
		"cc=reno+tahoe+reno": "scenario: cc=reno+tahoe+reno: reno given twice",
		"fracs=10,10":        "scenario: fracs=10,10: 10 given twice",
		"fracs=5,10,10.0":    "scenario: fracs=5,10,10.0: 10 given twice",
		// Found by FuzzScenarioRuns: the traffic engine needs two hosts.
		"topo=tree:gw=1":                        "scenario: topo=tree:gw=1: 1 host(s): want at least two",
		"topo=transitstub:gw=3,stubs=2,hosts=0": "scenario: topo=transitstub:gw=3,stubs=2,hosts=0: 0 host(s): want at least two",
	} {
		if _, err := ParseParams(text); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("ParseParams(%q): error %v, want %q…", text, err, want)
		}
	}
	if p, err := ParseParams(" "); err != nil || !reflect.DeepEqual(p, Params{}) {
		t.Fatalf("ParseParams(blank) = %+v, %v", p, err)
	}
}

// TestE13CCRunsTheTournamentCell: E13 with a congestion response runs
// E13-T's drop-tail cell of that name — the same hosts over the same
// traffic, so the same curve — and not E13's naive-timer hosts with the
// response's window rules bolted on.
func TestE13CCRunsTheTournamentCell(t *testing.T) {
	p := Params{CCs: []string{tcp.CCReno}, Loads: []float64{16}, Window: 4 * time.Second, Drain: 2 * time.Second}
	e13 := withRun(t, "E13", p)
	p.Policies = []phys.PolicySpec{{Kind: phys.PolicyDropTail}}
	e13t := withRun(t, "E13-T", p)
	for _, m := range []struct{ e13, e13t string }{
		{"peak_goodput", "t/transitstub/droptail/reno/peak_goodput"},
		{"l0_done", "t/transitstub/droptail/reno/done"},
	} {
		got, ok := lookup(e13, m.e13)
		want, wantOK := lookup(e13t, m.e13t)
		if !ok || !wantOK || got != want {
			t.Errorf("E13 -cc reno %s = %g (present %v), E13-T %s = %g (present %v)", m.e13, got, ok, m.e13t, want, wantOK)
		}
	}
}

// withRun runs experiment id reshaped by p at seed 1.
func withRun(t *testing.T, id string, p Params) Result {
	t.Helper()
	e, err := row(id).With(p)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(1)
}

// TestE13RefusesAWorkloadThatNamesItsHosts: E13's hosts are the cell
// its cc and qdisc name, so a workload whose vj, naive, cc or ecn that
// cell would overwrite is an error naming cc, not a run whose title
// lists hosts it did not run. Knobs that agree with the cell, or that
// the workload leaves unset, are taken.
func TestE13RefusesAWorkloadThatNamesItsHosts(t *testing.T) {
	e13 := row("E13")
	with := func(text string, p Params) error {
		ws, err := workload.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		p.Workload = &ws
		_, err = e13.With(p)
		return err
	}
	reno, ecn := []string{tcp.CCReno}, []phys.PolicySpec{{Kind: phys.PolicyECN}}
	for _, c := range []struct {
		text string
		p    Params
	}{{"vj=1", Params{}}, {"cc=reno", Params{}}, {"ecn=1", Params{}}, {"naive=1", Params{CCs: reno}}, {"cc=tahoe", Params{CCs: reno}}} {
		if err := with(c.text, c.p); err == nil || !strings.Contains(err.Error(), "cc") {
			t.Errorf("E13 with workload %q and %v: err %v, want a refusal naming cc", c.text, c.p, err)
		}
	}
	for _, c := range []struct {
		text string
		p    Params
	}{{"bulk=1,rate=40", Params{}}, {"naive=1", Params{}}, {"vj=1", Params{CCs: reno}}, {"cc=reno,ecn=1", Params{CCs: reno, Policies: ecn}}} {
		if err := with(c.text, c.p); err != nil {
			t.Errorf("E13 with workload %q and %v: %v", c.text, c.p, err)
		}
	}
}

// TestTakesNamesRealParams pins what each row takes, which is what its
// recorded scenario sets and what -h lists per key: every scenario key
// is taken by the experiments named here, and a Params with every
// scenario field set renders every key.
func TestTakesNamesRealParams(t *testing.T) {
	spec, ws := topo.DefaultSpec(), E13Workload()
	every := Params{Topo: &spec, Workload: &ws, Faults: RandomFaults, Policies: []phys.PolicySpec{{}}, CCs: []string{tcp.CCReno}, Fracs: []float64{0.1}}
	keys := every.Fields().Keys()
	if got := every.Fields().Shown(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("a Params with every scenario field set renders %v, want %v", got, keys)
	}
	want := map[string]string{
		"topo": "E12, E13-T, E14, E15, E16", "workload": "E13, E14", "faults": "E11",
		"qdisc": "E13, E13-T", "cc": "E13, E13-T", "fracs": "E14",
	}
	for i, line := range strings.Split(Usage(), "\n") {
		if _, got, _ := strings.Cut(line, "; taken by "); got != want[keys[i]] {
			t.Errorf("scenario key %q is taken by %q, want %q", keys[i], got, want[keys[i]])
		}
	}
}
