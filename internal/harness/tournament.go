package harness

import (
	"sort"
	"strings"
)

// Tournament is the ranked leaderboard distilled from an E13-T campaign
// report: one entry per (gateway policy × congestion response) cell,
// scored on campaign-mean collapse metrics and sorted best first.
type Tournament struct {
	Derived
	Entries []TournamentEntry `json:"entries"`
}

// TournamentEntry is one cell's campaign-mean outcome and composite
// score.
type TournamentEntry struct {
	Rank   int     `json:"rank"`
	Name   string  `json:"name"`   // "<topo>/<policy-kind>/<cc>"
	Topo   string  `json:"topo"`   // generated internet the cells ran on
	Policy string  `json:"policy"` // gateway queue policy kind
	CC     string  `json:"cc"`     // host congestion response
	Score  float64 `json:"score"`

	CollapseRatio  float64 `json:"collapse_ratio"`
	PeakGoodputBps float64 `json:"peak_goodput_bps"`
	Jain           float64 `json:"jain"`
	FCTp99         float64 `json:"fct_p99_s"`
	Done           float64 `json:"done"`
}

// Score weights: collapse resistance dominates (it is the experiment's
// question), throughput and fairness matter, tail latency tie-breaks.
const (
	scoreWCollapse = 0.45
	scoreWGoodput  = 0.25
	scoreWJain     = 0.20
	scoreWFCT      = 0.10
)

// BuildTournament distills a campaign report of the E13-T experiment
// into the ranked leaderboard, one entry per cell of the "t" metric
// family (labels: topology, policy, congestion response). The
// composite score is
//
//	0.45·collapse_ratio + 0.25·(peak_goodput/max) + 0.20·jain + 0.10·(min_fct/fct)
//
// — every term in [0,1], computed from campaign means, so the ranking
// is as deterministic as the report it reads. Ties break by cell name.
func BuildTournament(rep *Report) *Tournament {
	t := &Tournament{Derived: derivedFrom("darpanet/tournament/v2", rep)}
	// Cross-cell normalizers for the relative terms.
	maxGoodput, minFCT := 0.0, 0.0
	for _, c := range rep.cells("t") {
		e := TournamentEntry{
			Name: strings.Join(c.labels, "/"), Topo: c.labels[0], Policy: c.labels[1], CC: c.labels[2],
			CollapseRatio:  c.leaf["collapse_ratio"].Mean,
			PeakGoodputBps: c.leaf["peak_goodput"].Mean,
			Jain:           c.leaf["jain"].Mean,
			FCTp99:         c.leaf["fct_p99"].Mean,
			Done:           c.leaf["done"].Mean,
		}
		if e.PeakGoodputBps > maxGoodput {
			maxGoodput = e.PeakGoodputBps
		}
		if e.FCTp99 > 0 && (minFCT == 0 || e.FCTp99 < minFCT) {
			minFCT = e.FCTp99
		}
		t.Entries = append(t.Entries, e)
	}
	for i := range t.Entries {
		e := &t.Entries[i]
		goodput := 0.0
		if maxGoodput > 0 {
			goodput = e.PeakGoodputBps / maxGoodput
		}
		fct := 0.0 // no completions at the top load scores zero here
		if e.FCTp99 > 0 && minFCT > 0 {
			fct = minFCT / e.FCTp99
		}
		e.Score = scoreWCollapse*e.CollapseRatio +
			scoreWGoodput*goodput +
			scoreWJain*e.Jain +
			scoreWFCT*fct
	}
	sort.Slice(t.Entries, func(i, j int) bool {
		if t.Entries[i].Score != t.Entries[j].Score {
			return t.Entries[i].Score > t.Entries[j].Score
		}
		return t.Entries[i].Name < t.Entries[j].Name
	})
	for i := range t.Entries {
		t.Entries[i].Rank = i + 1
	}
	return t
}
