package harness_test

import (
	"math"
	"testing"

	"darpanet/internal/exp"
	"darpanet/internal/harness"
)

// labelled builds the summary of one labelled metric the way the
// campaign aggregation does, with only the mean filled in.
func labelled(family string, labels []string, leaf string, mean float64) harness.MetricSummary {
	var r exp.Result
	r.AddLabelled(family, labels, leaf, "", 0)
	return harness.MetricSummary{Name: r.Metrics[0].Name, Path: r.Metrics[0].Path, Mean: mean}
}

// TestBuildTournamentRanking pins the scoring layer against a
// hand-built report: score weights, goodput/FCT normalization, the
// zero-FCT guard, rank assignment and the name tie-break.
func TestBuildTournamentRanking(t *testing.T) {
	cellA, cellB := []string{"ts", "red", "reno"}, []string{"ts", "droptail", "naive"}
	rep := &harness.Report{
		ID: "E13-T", Title: "fixture", BaseSeed: 7, Runs: 1,
		Metrics: []harness.MetricSummary{
			// Cell A: perfect collapse, best goodput, perfect fairness.
			labelled("t", cellA, "collapse_ratio", 1),
			labelled("t", cellA, "peak_goodput", 2e6),
			labelled("t", cellA, "jain", 1),
			labelled("t", cellA, "fct_p99", 2),
			labelled("t", cellA, "done", 0.9),
			// Cell B: half the goodput, deep collapse, no completions at
			// the top load (fct 0 must score zero, not blow up).
			labelled("t", cellB, "collapse_ratio", 0.5),
			labelled("t", cellB, "peak_goodput", 1e6),
			labelled("t", cellB, "jain", 0.5),
			labelled("t", cellB, "fct_p99", 0),
			labelled("t", cellB, "done", 0),
			// Not tournament metrics — a plain name, even one that looks
			// like a tournament path, and another family: must be ignored.
			{Name: "peak_goodput", Mean: 9e9},
			{Name: "t/ts/ecn/reno/collapse_ratio", Mean: 1},
			labelled("s", []string{"t", "f10"}, "goodput_frac", 1),
		},
	}
	tour := harness.BuildTournament(rep)
	if tour.Schema != "darpanet/tournament/v2" || len(tour.Entries) != 2 {
		t.Fatalf("tournament = %+v", tour)
	}
	a, b := tour.Entries[0], tour.Entries[1]
	if a.Name != "ts/red/reno" || a.Rank != 1 || b.Name != "ts/droptail/naive" || b.Rank != 2 {
		t.Fatalf("ranking = %s(#%d), %s(#%d)", a.Name, a.Rank, b.Name, b.Rank)
	}
	// A: 0.45·1 + 0.25·1 + 0.20·1 + 0.10·(2/2) = 1.0
	if math.Abs(a.Score-1) > 1e-12 {
		t.Fatalf("score A = %v, want 1", a.Score)
	}
	// B: 0.45·0.5 + 0.25·0.5 + 0.20·0.5 + 0.10·0 = 0.45
	if math.Abs(b.Score-0.45) > 1e-12 {
		t.Fatalf("score B = %v, want 0.45", b.Score)
	}
	if a.Topo != "ts" || a.Policy != "red" || a.CC != "reno" || b.FCTp99 != 0 {
		t.Fatalf("entry fields: %+v %+v", a, b)
	}
}
