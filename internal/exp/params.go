package exp

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"

	"darpanet/internal/fault"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/spec"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// Params is the one way to reshape an experiment. Each row of All
// records the value of every field its driver reads, and every field
// left zero keeps the recorded value. The six scenario fields have one
// text form, Fields' "key=val;key=val;…" (ParseParams reads it, String
// writes it); the rest are set in Go. A row takes the keys its recorded
// scenario sets (-h lists them), and Experiment.With binds them; it
// ignores a key the row does not take, so cmd/experiments checks Takes.
type Params struct {
	Topo     *topo.Spec        // the generated internet
	Workload *workload.Spec    // the traffic mix
	Faults   *fault.Schedule   // a failure scenario replayed on every seed, or RandomFaults
	Policies []phys.PolicySpec // gateway queue policies: a sweep runs the first, a tournament crosses all with CCs
	CCs      []string          // host congestion responses: likewise
	Fracs    []float64         // the loss sweep, fractions of infrastructure in (0,1]

	// Scale-down knobs for the campaign-determinism tests; the CLI
	// exposes none of them.
	Loads   []float64    // offered-load sweep in T1 multiples
	Window  sim.Duration // flow-admission window
	Drain   sim.Duration // time after the window for flows to finish, or for routing to reconverge after a failure
	Regions int          // region count of a sharded internet
	Shards  int          // worker count of a sharded internet, on which no result or title depends
}

// RandomFaults, as Params.Faults, makes every replica seed draw its own
// failure scenario, so a campaign explores many distinct but
// reproducible fault sequences.
var RandomFaults = &fault.Schedule{Name: "random"}

// Fields is the scenario table, in rendering order: each key bound to
// its field through that field's own grammar, rendered when set, and
// documented by its grammar (Usage adds the experiments that take it).
// Terms are joined by ";", since the values use ",". A list may not
// repeat the label its elements' cells are named by in metric paths — a
// policy's kind, a congestion response, a percentage — or two cells
// would merge into one.
func (p *Params) Fields() spec.Fields {
	keys := func(fs spec.Fields) string { return "keys: " + strings.Join(fs.Keys(), ", ") }
	return spec.Fields{
		spec.Func("topo", &p.Topo, ref(topo.ParseSpec), (*topo.Spec).String).When(p.Topo != nil).
			Check(func() error { return twoHosts(p.Topo) }).
			Doc("shape:key=val,... — the generated internet (shapes: " + strings.Join(topo.ShapeNames(), ", ") + "; " + keys(new(topo.Spec).Fields()) + ")"),
		spec.Func("workload", &p.Workload, ref(workload.ParseSpec), (*workload.Spec).String).When(p.Workload != nil).Doc("key=val,... — the traffic mix (" + keys(new(workload.Spec).Fields()) + ")"),
		spec.Func("faults", &p.Faults, parseFaults, func(s *fault.Schedule) string { return s.Name }).When(p.Faults != nil).Doc("name — the failure schedule: a preset (" + strings.Join(fault.PresetNames(), ", ") + "), random (each replica seed draws its own), or a schedule file"),
		spec.List("qdisc", &p.Policies, "+", phys.ParsePolicySpec, phys.PolicySpec.String).When(len(p.Policies) > 0).
			Check(func() error { return once(p.Policies, func(s phys.PolicySpec) string { return s.Kind }) }).
			Doc("kind[:key=val,...]+... — gateway queue policies (" + strings.Join(phys.PolicyKinds(), "|") + "; " + keys(new(phys.PolicySpec).Fields()) + "), each kind once: a sweep runs the first, a tournament crosses them with cc"),
		spec.List("cc", &p.CCs, "+", spec.OneOf(tcp.CCNames()...), func(s string) string { return s }).When(len(p.CCs) > 0).
			Check(func() error { return once(p.CCs, func(s string) string { return s }) }).
			Doc("name+... — host congestion responses (" + strings.Join(tcp.CCNames(), "|") + "), each once: a sweep runs the first, a tournament crosses them with qdisc"),
		spec.List("fracs", &p.Fracs, ",", parseFrac, pct).When(len(p.Fracs) > 0).
			Check(func() error { return once(p.Fracs, pct) }).
			Doc("pct,... — the loss sweep in percent of infrastructure lost, each once, e.g. 2,5,10,20"),
	}
}

// twoHosts refuses an internet of fewer than two hosts: every
// experiment that takes one carries traffic between its hosts.
func twoHosts(t *topo.Spec) error {
	if n := t.HostCount(); n < 2 {
		return fmt.Errorf("%d host(s): want at least two to carry traffic", n)
	}
	return nil
}

// Usage is the scenario table's -h text: a line per key giving its
// grammar, then the experiments whose rows take it in paper order.
func Usage() string {
	fs := new(Params).Fields()
	lines := strings.Split(fs.Usage(), "\n")
	for i, key := range fs.Keys() {
		var ids []string
		for _, e := range All {
			if e.Takes(key) {
				ids = append(ids, e.ID)
			}
		}
		lines[i] += "; taken by " + strings.Join(ids, ", ")
	}
	return strings.Join(lines, "\n")
}

// once refuses a list in which two elements share a label.
func once[T any](vs []T, label func(T) string) error {
	for i, v := range vs {
		if l := label(v); slices.ContainsFunc(vs[:i], func(w T) bool { return label(w) == l }) {
			return fmt.Errorf("%s given twice", l)
		}
	}
	return nil
}

// pct renders a loss fraction as the percentage E14's metric paths name
// its cells by.
func pct(f float64) string { return fmt.Sprint(f * 100) }

// ParseParams reads the scenario form "key=val;key=val;…" with the keys
// of Params.Fields into Params, starting from the zero value.
func ParseParams(text string) (Params, error) {
	var p Params
	if err := p.Fields().ParseSep(text, ";"); err != nil {
		return Params{}, fmt.Errorf("scenario: %w", err)
	}
	return p, nil
}

// String renders the scenario fields that are set, in the form
// ParseParams accepts. A schedule renders as its Name, which is what
// ParseParams gave it: the preset, "random", or the file path as typed.
func (p Params) String() string { return p.Fields().Join(";") }

// ref adapts a grammar's parser to a field that is nil when unset.
func ref[T any](parse func(string) (T, error)) func(string) (*T, error) {
	return func(s string) (*T, error) { v, err := parse(s); return &v, err }
}

// parseFaults reads a faults value: a preset name, "random", or the path
// of a schedule file, which becomes the schedule's name so that it
// renders back to itself.
func parseFaults(arg string) (*fault.Schedule, error) {
	if arg == "random" {
		return RandomFaults, nil
	}
	if s, ok := fault.Preset(arg); ok {
		return &s, nil
	}
	text, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("not a preset (%s), random, or a readable file: %v", strings.Join(fault.PresetNames(), ", "), err)
	}
	s, err := fault.Parse(arg, string(text))
	return &s, err
}

// parseFrac reads a percentage as a loss fraction in (0,1].
func parseFrac(s string) (float64, error) {
	f, err := spec.ParseFloat(s)
	if err == nil && (f <= 0 || f > 100) {
		err = errors.New("want percentages in (0,100]")
	}
	return f / 100, err
}

// Takes reports whether the experiment consumes the named scenario key:
// whether its recorded scenario sets it.
func (e Experiment) Takes(key string) bool { return slices.Contains(e.scenario.Fields().Shown(), key) }

// With returns the experiment reshaped by p: every field p sets
// replaces the recorded value, and Title is suffixed with the scenario
// keys it takes that p sets, as "[key=val;…]". A key it does not take
// reaches no driver that reads it, so With(Params{}) gives the same
// results and title, and With on E1–E10 changes nothing a run shows. A
// value built in Go is held to what the text form accepts by parsing
// its text back — all but Faults, since a schedule in hand was parsed
// already and its name need not be a file that can be read. A row moved
// off its recorded scenario carries no claim.
func (e Experiment) With(p Params) (Experiment, error) {
	q := p
	q.Faults = nil
	if _, err := ParseParams(q.String()); err != nil {
		return e, err
	}
	if p.Shards < 0 || p.Regions < 0 {
		return e, fmt.Errorf("shards %d, regions %d: want non-negative counts", p.Shards, p.Regions)
	}
	sc := fill(p, e.scenario)
	if e.check != nil {
		if err := e.check(p, sc); err != nil {
			return e, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	if tag := p.Fields().Only(e.scenario.Fields().Shown()...).Join(";"); tag != "" {
		e.Title += " [" + tag + "]"
	}
	// A claim is the recorded scenario's: it goes when a field the driver
	// reads moves, but not for Shards, on which no result depends.
	same := sc
	same.Shards = e.scenario.Shards
	if !reflect.DeepEqual(fill(e.scenario, same), same) {
		e.claim = nil
	}
	e.scenario = sc
	return e, nil
}

// fill returns p with every field it leaves zero — a nil pointer, an
// empty list, a zero count or duration — taken from rec.
func fill(p, rec Params) Params {
	v, r := reflect.ValueOf(&p).Elem(), reflect.ValueOf(rec)
	for i := range v.NumField() {
		if f := v.Field(i); f.IsZero() || f.Kind() == reflect.Slice && f.Len() == 0 {
			f.Set(r.Field(i))
		}
	}
	return p
}
