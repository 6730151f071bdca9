package harness

import (
	"encoding/json"
	"io"
	"strings"
)

// Derived is the header every derived report shares: a report distilled
// from one experiment's campaign into one row per labelled cell. Like
// the campaign export it derives from, a derived report depends only on
// (experiment, base seed, runs) — never on worker or shard count — so
// its JSON compares byte for byte across parallelism levels.
type Derived struct {
	Schema   string `json:"schema"`
	ID       string `json:"id"`
	Title    string `json:"title"`
	BaseSeed int64  `json:"base_seed"`
	Runs     int    `json:"runs"`
}

func derivedFrom(schema string, rep *Report) Derived {
	return Derived{Schema: schema, ID: rep.ID, Title: rep.Title, BaseSeed: rep.BaseSeed, Runs: rep.Runs}
}

// cell is one labelled group of a metric family: the label values the
// driver emitted and, per leaf name, the campaign summary (the zero
// summary for a leaf the driver did not emit).
type cell struct {
	labels []string
	leaf   map[string]MetricSummary
}

// cells groups the report's labelled metrics of one family by label
// tuple, in order of first appearance — the one group-by every derived
// report is built on. Metrics of other families, and plain unlabelled
// names (family ""), are skipped.
func (r *Report) cells(family string) []cell {
	var out []cell
	index := map[string]int{}
	for _, m := range r.Metrics {
		if m.Path.Family != family {
			continue
		}
		key := strings.Join(m.Path.Labels, "\x00")
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, cell{labels: m.Path.Labels, leaf: map[string]MetricSummary{}})
		}
		out[j].leaf[m.Path.Leaf] = m
	}
	return out
}

// WriteDocument writes a campaign suite or a derived report as
// deterministic indented JSON.
func WriteDocument(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
