package harness

import (
	"fmt"
	"io"
	"strings"

	"darpanet/internal/exp"
	"darpanet/internal/stats"
)

// MetricSummary aggregates one named metric across all replicas of a
// campaign. Values holds the raw per-replica observations in replica
// (seed) order, so the full sample survives into the JSON export.
type MetricSummary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit,omitempty"`
	N      int       `json:"n"`
	Mean   float64   `json:"mean"`
	Stddev float64   `json:"stddev"`
	CI95   float64   `json:"ci95"`
	Min    float64   `json:"min"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
	// Path is the metric's labelled structure (zero for plain names),
	// carried from the driver so derived reports group by it instead
	// of parsing Name. Never serialised: the campaign schema is frozen.
	Path exp.MetricPath `json:"-"`
}

// Failure records one replica that panicked instead of returning.
type Failure struct {
	Seed  int64  `json:"seed"`
	Error string `json:"error"`
}

// Report is the aggregated outcome of one campaign. It is fully
// deterministic in (experiment, base seed, runs): worker count affects
// only wall time, never the report, so the JSON rendering can be
// compared byte for byte across parallelism levels.
type Report struct {
	ID       string          `json:"id"`
	Title    string          `json:"title"`
	BaseSeed int64           `json:"base_seed"`
	Runs     int             `json:"runs"`
	Failures []Failure       `json:"failures,omitempty"`
	Metrics  []MetricSummary `json:"metrics"`
	// First is the full result of the first successful replica — the
	// single-seed table campaign callers print alongside the
	// aggregates. Not part of the machine-readable export.
	First *exp.Result `json:"-"`
	// Held counts the replicas whose result held the experiment's
	// claim (exp.Experiment.Claim); not exported either.
	Held int `json:"-"`
}

// aggregate folds the finished replicas into per-metric summaries.
// Metric order is the order of first appearance scanning replicas in
// index order, which drivers keep fixed — so the order is stable.
func (c Campaign) aggregate(id, title string, replicas []replica) *Report {
	rep := &Report{ID: id, Title: title, BaseSeed: c.BaseSeed, Runs: len(replicas)}
	index := map[string]int{}
	var samples []*stats.Sample
	for i := range replicas {
		r := &replicas[i]
		if r.err != nil {
			rep.Failures = append(rep.Failures, Failure{Seed: c.BaseSeed + int64(i), Error: r.err.Error()})
			continue
		}
		if rep.First == nil {
			rep.First = &r.result
		}
		for _, m := range r.result.Metrics {
			j, ok := index[m.Name]
			if !ok {
				j = len(rep.Metrics)
				index[m.Name] = j
				rep.Metrics = append(rep.Metrics, MetricSummary{Name: m.Name, Unit: m.Unit, Path: m.Path})
				samples = append(samples, &stats.Sample{})
			}
			rep.Metrics[j].Values = append(rep.Metrics[j].Values, m.Value)
			samples[j].Add(m.Value)
		}
	}
	for j := range rep.Metrics {
		s := samples[j]
		ms := &rep.Metrics[j]
		ms.N = s.N()
		ms.Mean = s.Mean()
		ms.Stddev = s.StddevSample()
		ms.CI95 = s.CI95()
		ms.Min = s.Min()
		ms.P50 = s.Percentile(50)
		ms.P90 = s.Percentile(90)
		ms.Max = s.Max()
	}
	return rep
}

// Table renders the aggregate as a report table: one row per metric with
// mean ± 95% CI and the spread statistics. The per-layer counter mirrors
// ("ctr/..." — hundreds per experiment) stay in the JSON export but are
// left out of the human-readable table.
func (r *Report) Table() stats.Table {
	t := stats.Table{Header: []string{
		"metric", "unit", "n", "mean", "±95% CI", "stddev", "min", "p50", "max",
	}}
	for _, m := range r.Metrics {
		if strings.HasPrefix(m.Name, "ctr/") {
			continue
		}
		t.AddRow(m.Name, m.Unit, fmt.Sprint(m.N),
			fmtG(m.Mean), fmtG(m.CI95), fmtG(m.Stddev),
			fmtG(m.Min), fmtG(m.P50), fmtG(m.Max))
	}
	return t
}

// fmtG renders a metric value compactly without losing small spreads.
func fmtG(v float64) string {
	return fmt.Sprintf("%.4g", v)
}

// Suite is the top-level JSON document: one campaign report per
// experiment, under a fixed schema name so downstream tooling can
// version-check what it is reading.
type Suite struct {
	Schema      string    `json:"schema"`
	BaseSeed    int64     `json:"base_seed"`
	Runs        int       `json:"runs"`
	Experiments []*Report `json:"experiments"`
}

// WriteJSON writes the suite as deterministic indented JSON: the byte
// stream depends only on (experiments, base seed, runs) — never on
// worker count or wall-clock — so exports are comparable across runs.
func WriteJSON(w io.Writer, baseSeed int64, runs int, reports []*Report) error {
	return WriteDocument(w, &Suite{
		Schema:      "darpanet/campaign/v1",
		BaseSeed:    baseSeed,
		Runs:        runs,
		Experiments: reports,
	})
}
