package harness

import "sort"

// Frontier is the survivability frontier distilled from an E14 campaign
// report: one row per (attack mode × fraction lost) cell, campaign
// means across replicas, targeted curve first.
type Frontier struct {
	Derived
	Rows []FrontierRow `json:"rows"`
}

// FrontierRow is one attack cell's campaign-mean outcome.
type FrontierRow struct {
	Mode    string  `json:"mode"` // "targeted" or "random"
	LostPct float64 `json:"lost_pct"`

	GoodputFrac float64 `json:"goodput_frac"`
	DoneFrac    float64 `json:"done_frac"`
	Partitions  float64 `json:"partitions"`
	LargestFrac float64 `json:"largest_frac"`
	ReconvP50   float64 `json:"reconv_p50_s"`
	ReconvP90   float64 `json:"reconv_p90_s"`
	ReconvMax   float64 `json:"reconv_max_s"`
	LoopExits   float64 `json:"loop_exits"`
	LostFrames  float64 `json:"lost_frames"`
	LedgerDelta float64 `json:"ledger_delta"`
}

// BuildFrontier distills a campaign report of the E14 experiment into
// the survivability frontier, one row per cell of the "s" metric family
// (labels: attack mode, fraction lost). Rows are sorted targeted curve
// first, then fraction lost ascending, from campaign means only — as
// deterministic as the report it reads.
func BuildFrontier(rep *Report) *Frontier {
	f := &Frontier{Derived: derivedFrom("darpanet/survive/v1", rep)}
	for _, c := range rep.cells("s") {
		row := FrontierRow{
			Mode: "targeted",
			// A parameter, identical in every replica: Min is exact where
			// the mean of n equal floats need not be.
			LostPct:     c.leaf["lost_pct"].Min,
			GoodputFrac: c.leaf["goodput_frac"].Mean,
			DoneFrac:    c.leaf["done_frac"].Mean,
			Partitions:  c.leaf["partitions"].Mean,
			LargestFrac: c.leaf["largest_frac"].Mean,
			ReconvP50:   c.leaf["reconv_p50_s"].Mean,
			ReconvP90:   c.leaf["reconv_p90_s"].Mean,
			ReconvMax:   c.leaf["reconv_max_s"].Mean,
			LoopExits:   c.leaf["loop_exits"].Mean,
			LostFrames:  c.leaf["lost_frames"].Mean,
			LedgerDelta: c.leaf["ledger_delta"].Mean,
		}
		if c.labels[0] == "r" {
			row.Mode = "random"
		}
		f.Rows = append(f.Rows, row)
	}
	sort.SliceStable(f.Rows, func(i, j int) bool {
		if f.Rows[i].Mode != f.Rows[j].Mode {
			return f.Rows[i].Mode == "targeted"
		}
		return f.Rows[i].LostPct < f.Rows[j].LostPct
	})
	return f
}
