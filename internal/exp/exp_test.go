package exp

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/fault"
	"darpanet/internal/phys"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
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
		if e.Run == nil || e.Title == "" {
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

func TestStartBulkTCPCompletes(t *testing.T) {
	nw := core.New(3)
	nw.AddNet("n", "10.0.0.0/24", core.LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	nw.AddHost("a", "n")
	nw.AddHost("b", "n")
	tr := StartBulkTCP(nw, "a", "b", 80, 100_000, tcp.Options{})
	nw.RunFor(30 * time.Second)
	if !tr.Done || tr.Received != 100_000 {
		t.Fatalf("done=%v received=%d", tr.Done, tr.Received)
	}
	if tr.ElapsedToDone() <= 0 {
		t.Fatal("no elapsed time")
	}
	if tr.Err != nil {
		t.Fatalf("err = %v", tr.Err)
	}
}

// TestStartBulkTCPRefusesATakenPort: a second transfer to a port already
// listening used to dial anyway and land in the first transfer's count
// (200% of its target) while its own stayed at zero.
func TestStartBulkTCPRefusesATakenPort(t *testing.T) {
	nw := core.New(3)
	nw.AddNet("n", "10.0.0.0/24", core.LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	nw.AddHost("a", "n")
	nw.AddHost("b", "n")
	first := StartBulkTCP(nw, "a", "b", 80, 100_000, tcp.Options{})
	second := StartBulkTCP(nw, "a", "b", 80, 100_000, tcp.Options{})
	if !errors.Is(second.Err, tcp.ErrPortInUse) || second.Conn != nil {
		t.Fatalf("second transfer: err = %v, dialed = %v; want tcp.ErrPortInUse and no dial", second.Err, second.Conn != nil)
	}
	nw.RunFor(30 * time.Second)
	if first.Err != nil || first.Received != 100_000 || second.Received != 0 {
		t.Fatalf("first: err=%v received=%d, second received=%d; want the first transfer's own 100000 bytes only",
			first.Err, first.Received, second.Received)
	}
}

func TestRunUDPQueries(t *testing.T) {
	nw := core.New(3)
	nw.AddNet("n", "10.0.0.0/24", core.LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	nw.AddHost("a", "n")
	nw.AddHost("b", "n")
	qd := runUDPQueries(nw, "a", "b", 9999, 20, 10*time.Millisecond, 64, 0)
	nw.RunFor(5 * time.Second)
	if qd.sent != 20 || qd.got != 20 {
		t.Fatalf("sent=%d got=%d", qd.sent, qd.got)
	}
	for _, rtt := range qd.rtts {
		if rtt <= 0 || rtt > 100*time.Millisecond {
			t.Fatalf("implausible rtt %v", rtt)
		}
	}
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

func TestE9Shape(t *testing.T) {
	r := RunE9(1988)
	// Repacketization must need strictly fewer retransmissions.
	with := r.Table.Rows[0][2]
	without := r.Table.Rows[1][2]
	if with >= without && len(with) >= len(without) {
		t.Fatalf("repacketization row not better: %q vs %q", with, without)
	}
}

func TestE8Shape(t *testing.T) {
	r := RunE8(1988)
	for _, row := range r.Table.Rows {
		for _, c := range row[1:] {
			if c == "never" {
				t.Fatalf("a first byte never arrived: %v", row)
			}
		}
	}
	// UDP strictly faster than VC at every hop count.
	for _, row := range r.Table.Rows {
		if !strings.HasSuffix(row[1], "ms") || !strings.HasSuffix(row[3], "ms") {
			t.Fatalf("bad cells: %v", row)
		}
	}
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
			if v, ok := r.Metric(r.Metrics[0].Name); !ok || v != r.Metrics[0].Value {
				t.Fatal("Metric lookup broken")
			}
			if _, ok := r.Metric("no-such-metric"); ok {
				t.Fatal("Metric invented a value")
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

// TestPatternChunksReproducePattern checks the streamed form of the bulk
// pattern against the materialised one across several period wraps, with
// offers of every awkward size a send buffer can ask for.
func TestPatternChunksReproducePattern(t *testing.T) {
	const n = 3*patternPeriod + 12345
	want := patternBytes(n)
	sizes := []int{1, 535, 32768, 65535, patternPeriod - 1, patternPeriod, n}
	var got []byte
	for i := 0; len(got) < n; i++ {
		space := sizes[i%len(sizes)]
		chunk := patternChunk(len(got), n-len(got))
		if want := min(n-len(got), patternPeriod); len(chunk) != want {
			t.Fatalf("at %d: offered %d bytes, want %d", len(got), len(chunk), want)
		}
		got = append(got, chunk[:min(space, len(chunk))]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed pattern differs from patternBytes")
	}
}

func TestPatternBytesDeterministic(t *testing.T) {
	a, b := patternBytes(1000), patternBytes(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pattern not deterministic")
		}
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
	r := e11With(Params{})(1988)
	get := func(name string) float64 {
		v, ok := r.Metric(name)
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
// experiment does not take leave it untouched, keys it takes suffix
// Title in the scenario form — Shards leaves no trace in a report — and
// values the text form refuses, or a negative count, are rejected.
func TestWithBindsOnlyWhatAnExperimentTakes(t *testing.T) {
	spec := topo.Spec{Shape: topo.Waxman, Gateways: 12, Alpha: 0.25, Beta: 0.4, Hosts: 1}
	runPtr := func(e Experiment) uintptr { return reflect.ValueOf(e.Run).Pointer() }

	e1, _ := ByID("E1")
	got, err := e1.With(Params{Topo: &spec, Shards: 2, Fracs: []float64{0.1}})
	if err != nil || got.Title != e1.Title || runPtr(got) != runPtr(e1) {
		t.Fatalf("E1 takes no parameter but With changed it: %q, %v", got.Title, err)
	}

	e15, _ := ByID("E15")
	got, err = e15.With(Params{Shards: 2})
	if err != nil || got.Title != e15.Title {
		t.Fatalf("E15 with Shards: title %q (want unchanged), err %v", got.Title, err)
	}

	e13t, _ := ByID("E13-T")
	got, err = e13t.With(Params{Topo: &spec, Policies: []phys.PolicySpec{{Kind: phys.PolicyECN}}})
	if want := e13t.Title + " [topo=" + spec.String() + ";qdisc=ecn]"; err != nil || got.Title != want {
		t.Fatalf("E13-T title = %q, want %q (err %v)", got.Title, want, err)
	}
	e14, _ := ByID("E14")
	got, err = e14.With(Params{Topo: &spec, Fracs: []float64{0.1, 0.25, 0.07}, Policies: []phys.PolicySpec{{Kind: phys.PolicyECN}}})
	if want := e14.Title + " [topo=" + spec.String() + ";fracs=10,25,7.000000000000001]"; err != nil || got.Title != want {
		t.Fatalf("E14 title = %q, want %q (err %v)", got.Title, want, err)
	}

	for _, bad := range []Params{{CCs: []string{"vegas"}}, {Fracs: []float64{1.5}}, {Topo: &topo.Spec{Shape: "blob"}}, {Shards: -1}} {
		if _, err := e14.With(bad); err == nil {
			t.Fatalf("With(%+v) accepted", bad)
		}
	}

	// A schedule in hand is not read again: With neither opens a file
	// named like one nor refuses a schedule built in Go.
	e11, _ := ByID("E11")
	for _, name := range []string{"testdata/no-such-file.faults", "built-in-go"} {
		got, err = e11.With(Params{Faults: &fault.Schedule{Name: name}})
		if want := e11.Title + " [faults=" + name + "]"; err != nil || got.Title != want {
			t.Fatalf("E11 with a Go-built schedule %q: title %q, want %q (err %v)", name, got.Title, want, err)
		}
	}
}

// TestParseParamsRefuses: every refusal names the scenario and the term
// whole — a key given twice, a key no table has, and a value its own
// grammar refuses — and a blank scenario is the zero Params.
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
	e13 := e13With(p)(1)
	p.Policies = []phys.PolicySpec{{Kind: phys.PolicyDropTail}}
	e13t := e13tWith(p)(1)
	for _, m := range []struct{ e13, e13t string }{
		{"peak_goodput", "t/transitstub/droptail/reno/peak_goodput"},
		{"l0_done", "t/transitstub/droptail/reno/done"},
	} {
		got, ok := e13.Metric(m.e13)
		want, wantOK := e13t.Metric(m.e13t)
		if !ok || !wantOK || got != want {
			t.Errorf("E13 -cc reno %s = %g (present %v), E13-T %s = %g (present %v)", m.e13, got, ok, m.e13t, want, wantOK)
		}
	}
}

// TestTakesNamesRealParams guards the registry against a typo or a
// forgotten key: every key an experiment claims to take is a scenario
// key (or "shards"), every scenario key is taken by some experiment,
// every experiment that takes one has a binder, and a Params with every
// scenario field set renders every key.
func TestTakesNamesRealParams(t *testing.T) {
	spec, ws := topo.DefaultSpec(), E13Workload()
	every := Params{Topo: &spec, Workload: &ws, Faults: RandomFaults, Policies: []phys.PolicySpec{{}}, CCs: []string{tcp.CCReno}, Fracs: []float64{0.1}}
	keys := every.Fields().Keys()
	if got := every.Fields().Shown(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("a Params with every scenario field set renders %v, want %v", got, keys)
	}
	taken := map[string]bool{}
	for _, e := range All {
		if (len(e.takes) > 0) != (e.with != nil) {
			t.Fatalf("%s: takes %v but binder set = %v", e.ID, e.takes, e.with != nil)
		}
		for _, k := range e.takes {
			if k != "shards" && !slices.Contains(keys, k) {
				t.Fatalf("%s takes %q, which is not a scenario key", e.ID, k)
			}
			taken[k] = true
		}
	}
	for _, k := range keys {
		if !taken[k] {
			t.Errorf("no experiment takes scenario key %q", k)
		}
	}
}
