package exp

import (
	"errors"
	"fmt"
	"os"
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

// Params is the one way to reshape an experiment. The zero value is the
// recorded defaults, and every field left zero keeps its default. The
// six scenario fields have one text form, Fields' "key=val;key=val;…"
// (ParseParams reads it, String writes it); the rest are set in Go. Each
// row of All declares which keys it takes, and Experiment.With binds
// them. A key no experiment in hand takes is ignored by With — callers
// that must not ignore it (cmd/experiments) check Takes first.
type Params struct {
	Topo     *topo.Spec        // generated internet: E12, E13-T, E14, E15, E16
	Workload *workload.Spec    // traffic mix: E13, E14
	Faults   *fault.Schedule   // E11 scenario replayed on every seed, or RandomFaults
	Policies []phys.PolicySpec // gateway queue policy: E13 runs the first, E13-T crosses all with CCs
	CCs      []string          // host congestion response: likewise
	Fracs    []float64         // E14 loss sweep, fractions of infrastructure in (0,1]
	Shards   int               // E15/E16 worker count: buys wall-clock, never changes a result or a title

	// Scale-down knobs for the campaign-determinism tests; the CLI
	// exposes none of them.
	Loads   []float64    // E13, E13-T offered-load sweep in T1 multiples
	Window  sim.Duration // E13, E13-T, E14 flow-admission window
	Drain   sim.Duration // E13, E13-T drain after the window; E14 post-failure reconvergence window
	Regions int          // E15, E16 region count
}

// RandomFaults, as Params.Faults, makes every replica seed draw its own
// failure scenario, so a campaign explores many distinct but
// reproducible fault sequences.
var RandomFaults = &fault.Schedule{Name: "random"}

// Fields is the scenario table, in rendering order: each key bound to
// its field through that field's own grammar, rendered when set, and
// documented for -h. Terms are joined by ";", since the values use ",".
func (p *Params) Fields() spec.Fields {
	keys := func(fs spec.Fields) string { return "keys: " + strings.Join(fs.Keys(), ", ") }
	return spec.Fields{
		spec.Func("topo", &p.Topo, ref(topo.ParseSpec), (*topo.Spec).String).When(p.Topo != nil).Doc("shape:key=val,... — the generated internet of E12, E13-T, E14, E15, E16 (shapes: " + strings.Join(topo.ShapeNames(), ", ") + "; " + keys(new(topo.Spec).Fields()) + ")"),
		spec.Func("workload", &p.Workload, ref(workload.ParseSpec), (*workload.Spec).String).When(p.Workload != nil).Doc("key=val,... — the traffic mix of E13, E14 (" + keys(new(workload.Spec).Fields()) + ")"),
		spec.Func("faults", &p.Faults, parseFaults, func(s *fault.Schedule) string { return s.Name }).When(p.Faults != nil).Doc("name — the failure schedule of E11: a preset (" + strings.Join(fault.PresetNames(), ", ") + "), random (each replica seed draws its own), or a schedule file"),
		spec.List("qdisc", &p.Policies, "+", phys.ParsePolicySpec, phys.PolicySpec.String).When(len(p.Policies) > 0).Doc("kind[:key=val,...]+... — gateway queue policies of E13, E13-T (" + strings.Join(phys.PolicyKinds(), "|") + "; " + keys(new(phys.PolicySpec).Fields()) + "): E13 runs the first, E13-T crosses them with cc"),
		spec.List("cc", &p.CCs, "+", spec.OneOf(tcp.CCNames()...), func(s string) string { return s }).When(len(p.CCs) > 0).Doc("name+... — host congestion responses of E13, E13-T (" + strings.Join(tcp.CCNames(), "|") + "): E13 runs the first, E13-T crosses them with qdisc"),
		spec.List("fracs", &p.Fracs, ",", parseFrac, func(f float64) string { return fmt.Sprint(f * 100) }).When(len(p.Fracs) > 0).Doc("pct,... — the loss sweep of E14 in percent of infrastructure lost, e.g. 2,5,10,20"),
	}
}

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

// Takes reports whether the experiment consumes the named scenario key.
func (e Experiment) Takes(key string) bool { return slices.Contains(e.takes, key) }

// With returns the experiment reshaped by p: Run rebound to p, and Title
// suffixed with the scenario keys it takes that p sets, as "[key=val;…]".
// Keys it does not take are ignored, so With(Params{}) gives the same
// results and title, and With on E1–E10 returns the experiment
// unchanged. A value built in Go is held to what the text form accepts
// by parsing its text back — all but Faults, since a schedule in hand
// was parsed already and its name need not be a file that can be read.
func (e Experiment) With(p Params) (Experiment, error) {
	q := p
	q.Faults = nil
	if _, err := ParseParams(q.String()); err != nil {
		return e, err
	}
	if p.Shards < 0 || p.Regions < 0 {
		return e, fmt.Errorf("shards %d, regions %d: want non-negative counts", p.Shards, p.Regions)
	}
	if tag := p.Fields().Only(e.takes...).Join(";"); tag != "" {
		e.Title += " [" + tag + "]"
	}
	if e.with != nil {
		e.Run = e.with(p)
	}
	return e, nil
}

// or returns *v, or def when v is nil.
func or[T any](v *T, def T) T {
	if v == nil {
		return def
	}
	return *v
}

// orSlice returns v, or def when v is empty.
func orSlice[T any](v, def []T) []T {
	if len(v) == 0 {
		return def
	}
	return v
}
