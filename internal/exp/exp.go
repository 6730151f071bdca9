// Package exp implements the reproduction experiments: one per
// architectural claim of the 1988 paper, as indexed in DESIGN.md and
// reported in EXPERIMENTS.md. Each experiment builds a topology with
// internal/core, drives workloads, and renders a table; cmd/experiments
// prints them all and the root bench_test.go pins each by digest.
package exp

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"darpanet/internal/metrics"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
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
}

// AddMetric appends one named scalar to the result. Drivers emit metrics
// in a fixed order so replicas of the same experiment are comparable.
func (r *Result) AddMetric(name, unit string, value float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: value})
}

// AddLabelled appends one scalar of a labelled metric family — a cell
// of a grid the driver swept (tournament cell, attack cell, resolution
// mode). Name renders as "<family>/<labels...>/<leaf>". The "ctr/..."
// counters below stay plain AddMetric names: there are hundreds per
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
// every descriptor becomes a "ctr/<path>" metric, its path prefixed
// with scope when non-empty, so one driver can export several networks.
// The counters ride the ordinary campaign aggregation, so every E1–E11
// run and every harness campaign exports the full per-layer counter set
// with no extra plumbing, and
// determinism across worker counts comes for free — the snapshot is
// sorted and the registry is per-kernel.
func (r *Result) AddCounters(scope string, k *sim.Kernel) {
	r.addCounters(scope, metrics.For(k).Snapshot())
}

// AddCounterSums records layer-level counter totals — every registry
// descriptor summed across nodes, and across all the given kernels
// (metrics.Totals) — as "ctr/<scope>/<layer>/<name>" metrics. On
// generated internets (internal/topo, hundreds of nodes) the per-node
// counters AddCounters emits would swamp a campaign export with tens of
// thousands of metrics; the sums keep it compact while preserving the
// per-layer story. Sharded drivers pass every region kernel so the
// totals cover the whole internet regardless of how it was cut.
func (r *Result) AddCounterSums(scope string, ks ...*sim.Kernel) {
	r.addCounters(scope, metrics.Totals(ks...))
}

// addCounters records each entry of s as a "ctr/[<scope>/]<path>" metric.
// The names are rendered into one string; each metric's is a piece of it.
func (r *Result) addCounters(scope string, s metrics.Snapshot) {
	prefix := "ctr/"
	if scope != "" {
		prefix += scope + "/"
	}
	size := 0
	for _, e := range s {
		size += len(prefix) + len(e.Path)
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, e := range s {
		sb.WriteString(prefix)
		sb.WriteString(e.Path)
	}
	names, start := sb.String(), 0
	r.Metrics = slices.Grow(r.Metrics, len(s))
	for _, e := range s {
		end := start + len(prefix) + len(e.Path)
		r.AddMetric(names[start:end], "", float64(e.Value))
		start = end
	}
}

// Counters is the result's per-layer counter snapshot: its "ctr/"
// metrics, in the order AddCounters and AddCounterSums recorded them.
// cmd/experiments -metrics renders it as a tree.
func (r *Result) Counters() metrics.Snapshot {
	var s metrics.Snapshot
	for _, m := range r.Metrics {
		if path, ok := strings.CutPrefix(m.Name, "ctr/"); ok {
			s = append(s, metrics.Entry{Path: path, Value: uint64(m.Value)})
		}
	}
	return s
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

// Experiment is one row of All: the experiment's ID and title, the
// scenario it records and its driver.
type Experiment struct {
	ID    string
	Title string

	// scenario is the recorded value of every Params field drive reads,
	// so a driver is a function of (seed, scenario) alone; With fills
	// each field the caller leaves zero from it, and the scenario keys
	// it sets are the ones the experiment takes. It is zero for the
	// fixed labs E1–E10, whose drivers read no Params.
	scenario Params
	drive    func(seed int64, p Params) Result
	// check, if set, refuses a scenario the driver cannot run, or would
	// run otherwise than set asks, so With fails before any replica
	// does: set is the caller's Params, sc that filled from scenario.
	check func(set, sc Params) error
	// claim is the paper's argument the experiment carries, as checks on
	// its result's named metrics (EXPERIMENTS.md states each in words);
	// With drops it from a row it moves off the recorded scenario.
	claim func(*claims)
}

// Claim checks r against the row's claim: nil if it held, else an error
// naming the metric and the value that broke it. A metric r lacks breaks
// it, and a row that carries no claim answers every result with an error.
func (e Experiment) Claim(r Result) error {
	if e.claim == nil {
		return fmt.Errorf("%s: no claim off the recorded scenario", e.ID)
	}
	c := claims{r: r}
	if e.claim(&c); c.err != nil {
		return fmt.Errorf("%s claim: %w", e.ID, c.err)
	}
	return nil
}

// Claimed reports whether the row carries a claim.
func (e Experiment) Claimed() bool { return e.claim != nil }

// claims reads a result's named metrics for a claim and keeps the first
// check that failed — a metric the result lacks, or one whose value
// breaks its bound — so a claim is a list of checks with no plumbing.
type claims struct {
	r   Result
	err error
}

// v returns the named metric; a metric the result lacks fails the claim.
func (c *claims) v(name string) float64 {
	for _, m := range c.r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	if c.err == nil {
		c.err = fmt.Errorf("no metric %s", name)
	}
	return 0
}

// at checks that the named metric reads op want.
func (c *claims) at(name, op string, want float64) {
	if v := c.v(name); c.err == nil && !ops[op](v, want) {
		c.err = fmt.Errorf("%s = %g, want %s %g", name, v, op, want)
	}
}

// vs checks that metric a reads op metric b.
func (c *claims) vs(a, op, b string) {
	if x, y := c.v(a), c.v(b); c.err == nil && !ops[op](x, y) {
		c.err = fmt.Errorf("%s = %g, want %s %s = %g", a, x, op, b, y)
	}
}

// ops are the comparisons a claim states.
var ops = map[string]func(x, y float64) bool{
	"<":  func(x, y float64) bool { return x < y },
	"<=": func(x, y float64) bool { return x <= y },
	"==": func(x, y float64) bool { return x == y },
	">=": func(x, y float64) bool { return x >= y },
	">":  func(x, y float64) bool { return x > y },
}

// Run drives the experiment at seed under its scenario and stamps the
// result with the row's ID and title.
func (e Experiment) Run(seed int64) Result {
	r := e.drive(seed, e.scenario)
	r.ID, r.Title = e.ID, e.Title
	return r
}

// lab adapts a fixed lab's driver, which reads no Params.
func lab(run func(seed int64) Result) func(int64, Params) Result {
	return func(seed int64, _ Params) Result { return run(seed) }
}

// ptr returns a pointer to a copy of v, for a recorded scenario's
// optional fields.
func ptr[T any](v T) *T { return &v }

// All lists the experiments in paper order, each with the scenario its
// EXPERIMENTS.md tables record and the claim they defend.
var All = []Experiment{
	{ID: "E1", Title: "Survivability: fate-sharing datagrams vs virtual circuits under gateway failure", drive: lab(RunE1),
		claim: func(c *claims) {
			c.at("dg_crash_survived", "==", 1)
			c.at("vc_crash_survived", "==", 0)
		}},
	{ID: "E2", Title: "Types of service: four transports on one datagram layer", drive: lab(RunE2),
		claim: func(c *claims) { c.vs("prio_voice_miss", "<", "fifo_voice_miss") }},
	{ID: "E3", Title: "Varieties of networks: one TCP connection across four unlike subnets", drive: lab(RunE3),
		claim: func(c *claims) {
			for _, name := range []string{"single_lan_done", "single_serial_done", "single_radio_done", "single_tiny_done", "gauntlet_done"} {
				c.at(name, "==", 1)
			}
			c.at("gauntlet_frags", ">", 0)
		}},
	{ID: "E4", Title: "Distributed management: routing convergence without central control", drive: lab(RunE4),
		claim: func(c *claims) {
			c.at("linkcut_reconverged", "==", 1)
			c.at("crash_reconverged", "==", 1)
			c.at("static_linkcut_repaired", "==", 0)
		}},
	{ID: "E5", Title: "Cost of generality: header and retransmission overhead", drive: lab(RunE5),
		claim: func(c *claims) {
			for _, loss := range []int{0, 2, 5, 10} {
				c.at(fmt.Sprintf("tcp_delivered_loss%d", loss), "==", 300_000)
			}
		}},
	{ID: "E6", Title: "Host attachment: the damage a naive host's TCP does", drive: lab(RunE6),
		claim: func(c *claims) { c.vs("naive_partner_drops", ">", "good_partner_drops") }},
	{ID: "E7", Title: "Accountability: the datagram is the wrong accounting unit", drive: lab(RunE7),
		claim: func(c *claims) {
			c.vs("attributed_limit36", "<", "attributed_limit0")
			c.vs("attributed_limit8", "<", "attributed_limit36")
			c.vs("attributed_limit1", "<", "attributed_limit8")
		}},
	{ID: "E8", Title: "Datagrams need no setup: first-byte latency vs circuit establishment", drive: lab(RunE8),
		claim: func(c *claims) {
			gap := 0.0
			for _, hops := range []int{1, 2, 4, 6} {
				udp, vc := fmt.Sprintf("udp_first_byte_%dhops", hops), fmt.Sprintf("vc_first_byte_%dhops", hops)
				for _, name := range []string{udp, fmt.Sprintf("tcp_first_byte_%dhops", hops), vc} {
					c.at(name, ">=", 0)
				}
				if lag := c.v(vc) - c.v(udp); c.err == nil && lag <= gap {
					c.err = fmt.Errorf("%s - %s = %g, want > %g, the lag one path shorter", vc, udp, lag, gap)
				} else {
					gap = lag
				}
			}
		}},
	{ID: "E9", Title: "Byte-stream sequence space: repacketization on retransmit", drive: lab(RunE9),
		claim: func(c *claims) { c.vs("repack_retrans", "<", "orig_retrans") }},
	{ID: "E10", Title: "Flow/congestion control: 1988 TCP with and without Van Jacobson", drive: lab(RunE10),
		claim: func(c *claims) {
			for _, n := range []int{1, 4, 8} {
				c.vs(fmt.Sprintf("drops_%dsenders_nocc", n), ">", fmt.Sprintf("drops_%dsenders_vj", n))
			}
		}},
	{ID: "E11", Title: "Recovery under scripted failure: fault injection, reconvergence, blackout loss",
		drive: runE11, scenario: Params{Faults: preset("mixed")},
		claim: func(c *claims) {
			c.at("events_injected", "==", 12)
			c.at("tcp_survived", "==", 1)
			c.at("tcp_delivered", ">=", 4_000_000)
			c.at("reconverge_mean_s", ">", 0)
			c.at("reconverge_mean_s", "<=", 30)
			c.at("blackout_lost_frames", ">", 0)
			c.at("events_reconverged", ">=", 8)
		}},
	{ID: "E12", Title: "Scale: convergence, forwarding cost and conservation on a generated internet",
		drive: runE12, scenario: Params{Topo: ptr(topo.DefaultSpec())},
		claim: func(c *claims) {
			for _, name := range []string{"converged", "audit_routeworks", "audit_optimal", "tcp_done"} {
				c.at(name, "==", 1)
			}
			c.at("frame_ledger_delta", "==", 0)
		}},
	{ID: "E13", Title: "Congestion collapse: goodput vs offered load through the cliff",
		drive: runE13, check: e13Hosts, claim: func(c *claims) { c.at("collapsed", "==", 1) },
		// Loads are T1 multiples: 12 T1 stub trunks feed a 3-trunk
		// transit ring, so the sweep pushes well past one trunk and its
		// top points sit far beyond the knee. Flows are admitted for
		// Window, then get Drain to finish before the books close, by
		// the pre-1988 hosts the workload describes: the naive cell's.
		scenario: Params{Workload: ptr(E13Workload()), Policies: []phys.PolicySpec{{Kind: phys.PolicyDropTail}},
			CCs: []string{tcp.CCNaive}, Loads: []float64{0.5, 1, 2, 4, 8, 16, 32}, Window: 15 * time.Second, Drain: 10 * time.Second}},
	{ID: "E13-T", Title: "Policy tournament: gateway queue policy x host congestion response",
		drive: runE13T,
		// The full 3×4 grid on E13's internet and window: the storm that
		// makes the cliff takes ~10 simulated seconds to build. Four
		// loads — below the knee, at drop-tail/naive's knee, and twice
		// past it, where the cliff bites — keep the grid affordable.
		scenario: Params{Topo: ptr(e13Topo()),
			Policies: []phys.PolicySpec{{Kind: phys.PolicyDropTail}, {Kind: phys.PolicyRED}, {Kind: phys.PolicyECN}},
			CCs:      []string{tcp.CCNaive, tcp.CCTahoe, tcp.CCReno, tcp.CCNewReno},
			Loads:    []float64{1, 4, 16, 32}, Window: 15 * time.Second, Drain: 10 * time.Second},
		claim: func(c *claims) {
			cell := func(policy, cc, leaf string) string { return "t/transitstub/" + policy + "/" + cc + "/" + leaf }
			for _, policy := range []string{"droptail", "red", "ecn"} {
				for _, cc := range []string{"tahoe", "reno", "newreno"} {
					c.vs(cell(policy, cc, "peak_goodput"), ">", cell(policy, "naive", "peak_goodput"))
					c.vs(cell(policy, cc, "collapse_ratio"), ">=", cell(policy, "naive", "collapse_ratio"))
				}
			}
			c.at(cell("droptail", "naive", "collapse_ratio"), "<", 1)
		}},
	{ID: "E14", Title: "Survivability frontier: cut-set-targeted vs random failure at matched budgets",
		drive: runE14, claim: func(c *claims) { c.at("targeted_worse", "==", 1) },
		// A 4-transit ring with 4 stub gateways each — 20 gateways, 36
		// nets, 16 hosts, T1 trunks: the ring is 2-connected, but every
		// access trunk is a bridge and every transit gateway an
		// articulation point, the asymmetry between targeted and random
		// failure the experiment measures. Each frac spends that share
		// of the trunks as cuts and of the gateways as crashes. Flows are
		// admitted for Window; Drain is the post-failure reconvergence
		// window before service is measured.
		scenario: Params{Topo: &topo.Spec{Shape: topo.TransitStub, Gateways: 4, StubsPer: 4, Hosts: 1},
			Workload: ptr(e14Workload()), Fracs: []float64{0.02, 0.05, 0.10, 0.20},
			Window: 10 * time.Second, Drain: 14 * time.Second}},
	{ID: "E15", Title: "Names layer: service continuity by name through directory crash and renumbering",
		drive: runE15, check: e15Castable,
		// Three directory replicas on stub gateways spread across a
		// transit-stub graph, cut into two regions.
		scenario: Params{Topo: &topo.Spec{Shape: topo.TransitStub, Gateways: 6, StubsPer: 3, Hosts: 2, Directories: 3},
			Regions: 2, Shards: 1},
		claim: func(c *claims) {
			c.vs("n/name/continuity", ">", "n/pin/continuity")
			c.at("n/name/attach_ok", "==", 1)
		}},
	{ID: "E16", Title: "Sharded kernel: 2000 gateways under conservative link-delay synchronization",
		drive: runE16, scenario: Params{Topo: ptr(E16Spec()), Regions: 8, Shards: 1},
		claim: func(c *claims) {
			for _, name := range []string{"audit_delivers", "audit_optimal", "udp_delivered", "tcp_done"} {
				c.at(name, "==", 1)
			}
			c.at("frame_ledger_delta", "==", 0)
		}},
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
