package main

import (
	"fmt"
	"io"
	"sort"
)

// contractDoc is BENCHMARK.json: exactly these keys. -compare takes its
// bounds from the end_to_end list.
type contractDoc struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractBounded  `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// verdict judges one (metric, workload) pair: regressed when the new
// median is worse than the base by more than the bound; unresolved when
// either side's own spread is wider than the bound, so the bound cannot
// be told from noise; ok otherwise.
func verdict(base, cand metricValue, better string, bound float64) (ratio float64, v string) {
	ratio = cand.Value / base.Value
	worse := ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case iqrFrac(base.Samples) > bound || iqrFrac(cand.Samples) > bound:
		v = "unresolved"
	case worse > bound:
		v = "regressed"
	default:
		v = "ok"
	}
	return ratio, v
}

// runCompare prints, for every (end-to-end metric, workload) pair, base,
// new, ratio and a verdict against the contract's bounds; then the
// per-layer metrics with the direction each is expected to move; then
// whether the counts and digests — which must repeat exactly — do.
func runCompare(w io.Writer, contractPath, basePath, candPath string) error {
	var contract contractDoc
	if err := readJSONFile(contractPath, &contract); err != nil {
		return err
	}
	var base, cand resultSet
	if err := readJSONFile(basePath, &base); err != nil {
		return err
	}
	if err := readJSONFile(candPath, &cand); err != nil {
		return err
	}
	find := func(set *resultSet, name string, trace int) *workloadResult {
		for _, r := range set.Workloads {
			if r.Name == name && r.Trace == trace {
				return r
			}
		}
		return nil
	}

	fmt.Fprintf(w, "base %s (seed %d, %s, %d cpu)\nnew  %s (seed %d, %s, %d cpu)\n\n",
		basePath, base.Env.Seed, base.Env.Commit, base.Env.NProc, candPath, cand.Env.Seed, cand.Env.Commit, cand.Env.NProc)
	fmt.Fprintf(w, "%-22s %-13s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	regressed, unresolved := 0, 0
	for _, wd := range workloadDefs {
		b, c := find(&base, wd.Name, 0), find(&cand, wd.Name, 0)
		if b == nil || c == nil {
			continue
		}
		for _, def := range contract.EndToEnd {
			bm, ok1 := b.EndToEnd[def.Name]
			cm, ok2 := c.EndToEnd[def.Name]
			if !ok1 || !ok2 {
				continue
			}
			ratio, v := verdict(bm, cm, def.Better, def.Bound)
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-22s %-13s %14.6g %14.6g %8.3f %6.2f  %s\n", wd.Name, def.Name, bm.Value, cm.Value, ratio, def.Bound, v)
		}
		if b.Failed+c.Failed > 0 {
			fmt.Fprintf(w, "%-22s failed operations: base %d of %d, new %d of %d\n", wd.Name, b.Failed, b.Attempted, c.Failed, c.Attempted)
		}
	}

	fmt.Fprintf(w, "\nper-layer (traced pass; no bound — read with the end-to-end rows above)\n")
	fmt.Fprintf(w, "%-22s %-30s %14s %14s %8s  %-6s  %s\n", "workload", "metric", "base", "new", "ratio", "better", "should move")
	exact := 0
	for _, wd := range workloadDefs {
		b, c := find(&base, wd.Name, 1), find(&cand, wd.Name, 1)
		if b == nil || c == nil {
			continue
		}
		for _, def := range perLayerDefs {
			bm, cm := b.PerLayer[def.Name], c.PerLayer[def.Name]
			if bm.Value == 0 && cm.Value == 0 {
				continue // the layer idles on this workload
			}
			ratio := "-"
			if bm.Value != 0 {
				ratio = fmt.Sprintf("%.3f", cm.Value/bm.Value)
			}
			fmt.Fprintf(w, "%-22s %-30s %14.6g %14.6g %8s  %-6s  %s\n", wd.Name, def.Name, bm.Value, cm.Value, ratio, def.Better, def.Moves)
		}
		exact += compareExact(w, wd.Name, b, c)
	}
	for _, wd := range workloadDefs {
		if b, c := find(&base, wd.Name, 0), find(&cand, wd.Name, 0); b != nil && c != nil {
			exact += compareExact(w, wd.Name, b, c)
		}
	}
	fmt.Fprintf(w, "\n%d regressed, %d unresolved, %d exact mismatches (counts and digests must repeat for the same seed and code)\n", regressed, unresolved, exact)
	return nil
}

// compareExact reports every count and digest that differs between two
// runs of one workload, and how many did.
func compareExact(w io.Writer, name string, b, c *workloadResult) (mismatches int) {
	if b.Seed != c.Seed {
		return 0 // different inputs: nothing is expected to repeat
	}
	keys := make(map[string]bool)
	for k := range b.Counts {
		keys[k] = true
	}
	for k := range c.Counts {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if b.Counts[k] != c.Counts[k] {
			fmt.Fprintf(w, "%-22s trace=%d count %s: base %d, new %d\n", name, b.Trace, k, b.Counts[k], c.Counts[k])
			mismatches++
		}
	}
	for i := 0; i < len(b.Digests) && i < len(c.Digests); i++ {
		if b.Digests[i] != c.Digests[i] {
			fmt.Fprintf(w, "%-22s trace=%d digest of iteration %d: base %s, new %s\n", name, b.Trace, i, b.Digests[i], c.Digests[i])
			mismatches++
			break
		}
	}
	return mismatches
}
