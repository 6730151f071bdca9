// Package exp implements the reproduction experiments: one per
// architectural claim of the 1988 paper, as indexed in DESIGN.md and
// reported in EXPERIMENTS.md. Each experiment builds a topology with
// internal/core, drives workloads, and renders a table; cmd/experiments
// prints them all and the root bench_test.go pins each by digest.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"darpanet/internal/metrics"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
)

// Metric is one named scalar outcome of an experiment run. Alongside the
// rendered table every driver records its headline quantities as metrics
// so the campaign harness (internal/harness) can aggregate replicas of
// the same experiment across seeds into mean / CI statistics.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
	// Path is the structure Name was rendered from, zero for a plain
	// AddMetric name. It rides to harness.MetricSummary so derived
	// reports group by labels instead of re-parsing Name; it is never
	// serialised. (A value, not a pointer: runs are compared for
	// determinism by printing their metrics.)
	Path MetricPath `json:"-"`
}

// MetricPath is a labelled metric's name in structured form:
// "t/waxman/red/reno/collapse_ratio" is family "t", labels
// {waxman, red, reno}, leaf "collapse_ratio".
type MetricPath struct {
	Family string
	Labels []string
	Leaf   string
}

// Result is one experiment's rendered outcome: the human-readable table
// plus the machine-readable scalar metrics extracted from it.
type Result struct {
	ID      string
	Title   string
	Table   stats.Table
	Notes   []string
	Metrics []Metric
	// Counters is the full per-layer registry snapshot of every kernel
	// the driver ran, entries prefixed with the driver's scope name
	// (see AddCounters). cmd/experiments -metrics renders it as a tree.
	Counters metrics.Snapshot
}

// AddMetric appends one named scalar to the result. Drivers emit metrics
// in a fixed order so replicas of the same experiment are comparable.
func (r *Result) AddMetric(name, unit string, value float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: value})
}

// AddLabelled appends one scalar of a labelled metric family — a cell
// of a grid the driver swept (tournament cell, attack cell, resolution
// mode). Name renders as "<family>/<labels...>/<leaf>". The "ctr/..."
// mirrors below stay plain AddMetric names: there are hundreds per
// result and no derived report groups them.
func (r *Result) AddLabelled(family string, labels []string, leaf, unit string, value float64) {
	r.Metrics = append(r.Metrics, Metric{
		Name:  family + "/" + strings.Join(labels, "/") + "/" + leaf,
		Unit:  unit,
		Value: value,
		Path:  MetricPath{Family: family, Labels: labels, Leaf: leaf},
	})
}

// AddCounters snapshots kernel k's metrics registry into the result:
// every descriptor is appended to Counters (path prefixed with scope,
// when non-empty, so one driver can export several networks) and
// mirrored as a "ctr/<path>" metric. The mirror rides the ordinary
// campaign aggregation, so every E1–E11 run and every harness campaign
// exports the full per-layer counter set with no extra plumbing, and
// determinism across worker counts comes for free — the snapshot is
// sorted and the registry is per-kernel.
func (r *Result) AddCounters(scope string, k *sim.Kernel) {
	for _, e := range metrics.For(k).Snapshot() {
		if scope != "" {
			e.Path = scope + "/" + e.Path
		}
		r.Counters = append(r.Counters, e)
		r.AddMetric("ctr/"+e.Path, "", float64(e.Value))
	}
}

// AddCounterSums records layer-level counter totals — every registry
// descriptor summed across nodes, and across all the given kernels —
// as "ctr/<scope>/<layer>/<name>" metrics and counter entries. On
// generated internets (internal/topo, hundreds of nodes) the per-node
// mirror AddCounters emits would swamp a campaign export with tens of
// thousands of metrics; the sums keep it compact while preserving the
// per-layer story. Sharded drivers pass every region kernel so the
// totals cover the whole internet regardless of how it was cut.
func (r *Result) AddCounterSums(scope string, ks ...*sim.Kernel) {
	sums := make(map[string]uint64)
	for _, k := range ks {
		for _, e := range metrics.For(k).Snapshot() {
			p := e.Path
			if i := strings.LastIndex(p, "~"); i >= 0 && !strings.Contains(p[i:], "/") {
				p = p[:i] // uniquified duplicate, fold into the base name
			}
			if i := strings.Index(p, "/"); i >= 0 {
				p = p[i+1:] // drop the node segment
			}
			sums[p] += e.Value
		}
	}
	order := make([]string, 0, len(sums))
	for p := range sums {
		order = append(order, p)
	}
	sort.Strings(order)
	for _, p := range order {
		path := p
		if scope != "" {
			path = scope + "/" + p
		}
		r.Counters = append(r.Counters, metrics.Entry{Path: path, Value: sums[p]})
		r.AddMetric("ctr/"+path, "", float64(sums[p]))
	}
}

// Metric returns the named metric's value (0, false when absent).
func (r *Result) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// bool01 renders a boolean as the 0/1 metric convention: campaign means
// of 0/1 metrics read directly as survival / completion rates.
func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// String renders the result as a report section.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n\n", r.ID, r.Title)
	b.WriteString(r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment pairs an ID with its driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(seed int64) Result

	// takes names the scenario keys the experiment consumes, plus
	// "shards" for the two that run on Params.Shards workers, and with
	// binds a driver to Params (see With), Run being with(Params{}); both
	// are zero for the fixed labs E1–E10.
	takes []string
	with  func(Params) func(seed int64) Result
}

// All lists the experiments in paper order.
var All = []Experiment{
	{ID: "E1", Title: "Survivability: fate-sharing datagrams vs virtual circuits under gateway failure", Run: RunE1},
	{ID: "E2", Title: "Types of service: four transports on one datagram layer", Run: RunE2},
	{ID: "E3", Title: "Varieties of networks: one TCP connection across four unlike subnets", Run: RunE3},
	{ID: "E4", Title: "Distributed management: routing convergence without central control", Run: RunE4},
	{ID: "E5", Title: "Cost of generality: header and retransmission overhead", Run: RunE5},
	{ID: "E6", Title: "Host attachment: the damage a naive host's TCP does", Run: RunE6},
	{ID: "E7", Title: "Accountability: the datagram is the wrong accounting unit", Run: RunE7},
	{ID: "E8", Title: "Datagrams need no setup: first-byte latency vs circuit establishment", Run: RunE8},
	{ID: "E9", Title: "Byte-stream sequence space: repacketization on retransmit", Run: RunE9},
	{ID: "E10", Title: "Flow/congestion control: 1988 TCP with and without Van Jacobson", Run: RunE10},
	{ID: "E11", Title: "Recovery under scripted failure: fault injection, reconvergence, blackout loss", Run: e11With(Params{}),
		takes: []string{"faults"}, with: e11With},
	{ID: "E12", Title: "Scale: convergence, forwarding cost and conservation on a generated internet", Run: e12With(Params{}),
		takes: []string{"topo"}, with: e12With},
	{ID: "E13", Title: "Congestion collapse: goodput vs offered load through the cliff", Run: e13With(Params{}),
		takes: []string{"workload", "qdisc", "cc"}, with: e13With},
	{ID: "E13-T", Title: "Policy tournament: gateway queue policy x host congestion response", Run: e13tWith(Params{}),
		takes: []string{"topo", "qdisc", "cc"}, with: e13tWith},
	{ID: "E14", Title: "Survivability frontier: cut-set-targeted vs random failure at matched budgets", Run: e14With(Params{}),
		takes: []string{"topo", "workload", "fracs"}, with: e14With},
	{ID: "E15", Title: "Names layer: service continuity by name through directory crash and renumbering", Run: e15With(Params{}),
		takes: []string{"topo", "shards"}, with: e15With},
	{ID: "E16", Title: "Sharded kernel: 2000 gateways under conservative link-delay synchronization", Run: e16With(Params{}),
		takes: []string{"topo", "shards"}, with: e16With},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
