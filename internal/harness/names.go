package harness

import "sort"

// NamesReport is the naming-layer outcome distilled from an E15
// campaign report: one row per resolution mode (name-based first, then
// the address-pinned baseline), campaign means across replicas.
type NamesReport struct {
	Derived
	Rows []NamesRow `json:"rows"`
}

// NamesRow is one resolution mode's campaign-mean outcome.
type NamesRow struct {
	Mode string `json:"mode"` // "name" or "pin"

	Attempts     float64 `json:"attempts"`
	Completed    float64 `json:"completed"`
	Continuity   float64 `json:"continuity"`
	ResolveP50   float64 `json:"resolve_p50_ms"`
	ResolveP90   float64 `json:"resolve_p90_ms"`
	CacheHit     float64 `json:"cache_hit"`
	Queries      float64 `json:"queries"`
	Retries      float64 `json:"retries"`
	Failovers    float64 `json:"failovers"`
	Fails        float64 `json:"fails"`
	Autoconf     float64 `json:"autoconf"`
	RegConvS     float64 `json:"reg_conv_s"`
	ReregS       float64 `json:"rereg_s"`
	RestoreSyncS float64 `json:"restore_sync_s"`
	AttachS      float64 `json:"attach_s"`
	AttachOK     float64 `json:"attach_ok"`
}

// namesModes orders the curves: the naming layer before the baseline.
var namesModes = map[string]int{"name": 0, "pin": 1}

// BuildNames distills a campaign report of the E15 experiment into the
// per-mode naming summary, one row per cell of the "n" metric family
// (label: resolution mode). Rows are sorted name mode first, from
// campaign means only — as deterministic as the report it reads.
func BuildNames(rep *Report) *NamesReport {
	n := &NamesReport{Derived: derivedFrom("darpanet/names/v1", rep)}
	for _, c := range rep.cells("n") {
		n.Rows = append(n.Rows, NamesRow{
			Mode:         c.labels[0],
			Attempts:     c.leaf["attempts"].Mean,
			Completed:    c.leaf["completed"].Mean,
			Continuity:   c.leaf["continuity"].Mean,
			ResolveP50:   c.leaf["resolve_p50_ms"].Mean,
			ResolveP90:   c.leaf["resolve_p90_ms"].Mean,
			CacheHit:     c.leaf["cache_hit"].Mean,
			Queries:      c.leaf["queries"].Mean,
			Retries:      c.leaf["retries"].Mean,
			Failovers:    c.leaf["failovers"].Mean,
			Fails:        c.leaf["fails"].Mean,
			Autoconf:     c.leaf["autoconf"].Mean,
			RegConvS:     c.leaf["reg_conv_s"].Mean,
			ReregS:       c.leaf["rereg_s"].Mean,
			RestoreSyncS: c.leaf["restore_sync_s"].Mean,
			AttachS:      c.leaf["attach_s"].Mean,
			AttachOK:     c.leaf["attach_ok"].Mean,
		})
	}
	sort.SliceStable(n.Rows, func(i, j int) bool {
		return namesModes[n.Rows[i].Mode] < namesModes[n.Rows[j].Mode]
	})
	return n
}
