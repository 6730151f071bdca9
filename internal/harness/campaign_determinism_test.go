package harness_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"darpanet/internal/exp"
	"darpanet/internal/harness"
	"darpanet/internal/topo"
)

// derivedKinds builds each derived report and counts its rows.
var derivedKinds = map[string]func(*harness.Report) (doc any, rows int){
	"leaderboard": func(r *harness.Report) (any, int) { t := harness.BuildTournament(r); return t, len(t.Entries) },
	"survive":     func(r *harness.Report) (any, int) { f := harness.BuildFrontier(r); return f, len(f.Rows) },
	"names":       func(r *harness.Report) (any, int) { n := harness.BuildNames(r); return n, len(n.Rows) },
}

// checkLabels pins what the metric labels must carry through to the
// rows: the tournament's topology id is the shape of the internet it ran
// on, and the naming summary leads with the name mode.
func checkLabels(doc any) error {
	switch d := doc.(type) {
	case *harness.Tournament:
		for _, e := range d.Entries {
			if e.Topo != string(topo.Waxman) {
				return fmt.Errorf("entry %q: topo = %q, want %q", e.Name, e.Topo, topo.Waxman)
			}
		}
	case *harness.NamesReport:
		if d.Rows[0].Mode != "name" || d.Rows[1].Mode != "pin" {
			return fmt.Errorf("names rows %+v, want [name pin]", d.Rows)
		}
	}
	return nil
}

// scenario reads text into p's scenario fields and keeps its Go-only
// scale-down knobs.
func scenario(t *testing.T, text string, p exp.Params) exp.Params {
	t.Helper()
	if err := p.Fields().ParseSep(text, ";"); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCampaignJSONByteIdentical is the acceptance check of every
// reshapeable experiment's campaign: the aggregated campaign JSON — and
// the derived report distilled from it, where there is one — must be
// byte-for-byte identical at any campaign parallelism and any
// per-replica worker count. Replicas share no state and every random
// decision (fault draw, generated internet, arrival process, attack
// schedule, attempt plan) comes from a per-replica seeded rng, so
// neither knob may leak into the numbers; a derived report adds the
// check that its grouping, scoring and ordering leak no map order.
// Each row is a scenario with scaled-down Go-only knobs that keep the
// test quick; the full-size campaigns are the recorded tables in
// EXPERIMENTS.md.
func TestCampaignJSONByteIdentical(t *testing.T) {
	const runs, baseSeed = 3, 1988
	scaled := exp.Params{Loads: []float64{1, 6}, Window: 4 * time.Second, Drain: 4 * time.Second}

	rows := []struct {
		name     string
		id       string
		params   exp.Params
		shards   []int  // per-replica worker counts to cross with parallel {1,3}; nil = not sharded
		derived  string // derived report to compare as well
		wantRows int
	}{
		// The scripted default schedule, then per-seed random scenarios:
		// the injector and the recovery it measures depend on the seed
		// and the schedule alone.
		{name: "E11 mixed", id: "E11"},
		{name: "E11 random", id: "E11", params: scenario(t, "faults=random", exp.Params{})},
		// Generation, batched RIP and the route audit under the campaign
		// scheduler.
		{name: "E12", id: "E12", params: scenario(t, "topo=waxman:gw=16,hosts=1", exp.Params{})},
		// All four application profiles, the retransmission bin sampler
		// and the summary reduction at two load points.
		{name: "E13", id: "E13", params: scenario(t, "workload=naive=1", scaled)},
		// The 2×2 corner of the grid — the era's status quo and the full
		// RFC 3168 answer — on the Waxman internet, whose shape must be
		// the topology id of every leaderboard entry.
		{name: "E13-T", id: "E13-T", derived: "leaderboard", wantRows: 4, params: scenario(t,
			"topo=waxman:gw=12,alpha=0.25,beta=0.4,hosts=1,mix=0;qdisc=droptail+ecn;cc=naive+reno", scaled)},
		// Cut-structure analysis, targeted and random compound attacks at
		// matched budgets, census and workload engine.
		{name: "E14", id: "E14", derived: "survive", wantRows: 4, params: scenario(t,
			"topo=transitstub:gw=3,stubs=2,hosts=1,mix=0;workload=vj=1,max=60000;fracs=10,20",
			exp.Params{Window: 4 * time.Second, Drain: 8 * time.Second})},
		// Directory replicas span both regions, so the equality also
		// covers replication traffic crossing the shard seam.
		{name: "E15", id: "E15", derived: "names", wantRows: 2, shards: []int{1, 2}, params: scenario(t,
			"topo=transitstub:gw=4,stubs=2,hosts=2,dirs=2", exp.Params{Regions: 2})},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			base, _ := exp.ByID(row.id)
			shards := row.shards
			if shards == nil {
				shards = []int{0}
			}
			var wantCampaign, wantDerived []byte
			for _, parallel := range []int{1, 3} {
				for _, workers := range shards {
					label := fmt.Sprintf("parallel=%d shards=%d", parallel, workers)
					p := row.params
					p.Shards = workers
					e, err := base.With(p)
					if err != nil {
						t.Fatal(err)
					}
					rep := harness.Campaign{Runs: runs, Parallel: parallel, BaseSeed: baseSeed}.RunExperiment(e)
					if len(rep.Failures) > 0 {
						t.Fatalf("%s: replica failures: %+v", label, rep.Failures)
					}
					var campaign, derived bytes.Buffer
					if err := harness.WriteJSON(&campaign, baseSeed, runs, []*harness.Report{rep}); err != nil {
						t.Fatal(err)
					}
					if row.derived != "" {
						doc, n := derivedKinds[row.derived](rep)
						if n != row.wantRows {
							t.Fatalf("%s: %s has %d rows, want %d", label, row.derived, n, row.wantRows)
						}
						if err := checkLabels(doc); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if err := harness.WriteDocument(&derived, doc); err != nil {
							t.Fatal(err)
						}
					}
					if wantCampaign == nil {
						wantCampaign, wantDerived = campaign.Bytes(), derived.Bytes()
						continue
					}
					if !bytes.Equal(wantCampaign, campaign.Bytes()) {
						t.Fatalf("%s: campaign JSON diverged", label)
					}
					if !bytes.Equal(wantDerived, derived.Bytes()) {
						t.Fatalf("%s: %s JSON diverged", label, row.derived)
					}
				}
			}
		})
	}
}

// TestWithZeroParamsIsPlainRun pins the Params contract the recorded
// tables rest on: the zero value is the recorded defaults, so With of
// it yields the campaign JSON plain Run yields. (The heavy families
// E12–E14 and E16 bind their defaults through the same path; their
// default-parameter bytes are pinned by the recorded exports.)
func TestWithZeroParamsIsPlainRun(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E15"} {
		plain, _ := exp.ByID(id)
		with, err := plain.With(exp.Params{})
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		c := harness.Campaign{Runs: 1, BaseSeed: 1988}
		if err := harness.WriteJSON(&want, 1988, 1, []*harness.Report{c.RunFunc(plain.ID, plain.Title, plain.Run)}); err != nil {
			t.Fatal(err)
		}
		if err := harness.WriteJSON(&got, 1988, 1, []*harness.Report{c.RunExperiment(with)}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: With(Params{}) campaign JSON differs from plain Run", id)
		}
	}
}
