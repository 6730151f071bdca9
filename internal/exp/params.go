package exp

import (
	"fmt"
	"slices"
	"strings"

	"darpanet/internal/fault"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// Params is the one way to reshape an experiment. The zero value is the
// recorded defaults, and every field left zero keeps its default; each
// row of All declares which fields it takes, and Experiment.With binds
// them. A field no experiment in hand takes is ignored by With — callers
// that must not ignore it (cmd/experiments) check Takes first.
type Params struct {
	Topo     *topo.Spec        // generated internet: E12, E13-T, E14, E15, E16
	Workload *workload.Spec    // traffic mix: E13, E14
	Faults   *fault.Schedule   // E11 scenario replayed on every seed, or RandomFaults
	Policies []phys.PolicySpec // gateway queue policy: E13 runs the first, E13-T crosses all with CCs
	CCs      []string          // host congestion response: likewise
	Fracs    []float64         // E14 loss sweep, fractions of infrastructure in (0,1]
	Shards   int               // E15/E16 worker count: buys wall-clock, never changes a result

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

// Fields names the fields of p that are set, in title order.
func (p Params) Fields() []string {
	var set []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Faults", p.Faults != nil}, {"Workload", p.Workload != nil},
		{"Policies", len(p.Policies) > 0}, {"CCs", len(p.CCs) > 0},
		{"Topo", p.Topo != nil}, {"Fracs", len(p.Fracs) > 0}, {"Shards", p.Shards != 0},
		{"Loads", len(p.Loads) > 0}, {"Window", p.Window != 0}, {"Drain", p.Drain != 0}, {"Regions", p.Regions != 0},
	} {
		if f.set {
			set = append(set, f.name)
		}
	}
	return set
}

// tag is the title suffix a set field leaves on an experiment that
// consumes it. grid selects how the Policies/CCs pair is titled: as the
// one cell E13 runs, or — once, on whichever axis comes first — as the
// size of the grid E13-T crosses them into. The scale-down knobs leave
// no tag, and neither does Shards, for which that is load-bearing:
// reports are compared byte for byte across worker counts.
func (p Params) tag(field string, grid bool) string {
	switch field {
	case "Faults":
		return " [-faults " + p.Faults.Name + "]"
	case "Workload":
		return " [-workload " + p.Workload.String() + "]"
	case "Policies", "CCs":
		if grid && (field == "Policies" || len(p.Policies) == 0) {
			return fmt.Sprintf(" [%d-cell grid]", len(e13tGrid(p.Policies, p.CCs)))
		}
		if !grid && field == "Policies" {
			return " [-qdisc " + p.Policies[0].String() + "]"
		}
	case "Topo":
		return " [-topo " + p.Topo.String() + "]"
	case "Fracs":
		pcts := make([]string, len(p.Fracs))
		for i, f := range p.Fracs {
			pcts[i] = fmt.Sprintf("%g", f*100)
		}
		return " [-fracs " + strings.Join(pcts, ",") + "]"
	}
	return ""
}

// validate rejects values no driver can run.
func (p Params) validate() error {
	for _, cc := range p.CCs {
		if tcp.CCByName(cc) == nil {
			return fmt.Errorf("congestion response %q: want one of %s", cc, strings.Join(tcp.CCNames(), ", "))
		}
	}
	for _, f := range p.Fracs {
		if f <= 0 || f > 1 {
			return fmt.Errorf("loss fraction %g: want a fraction in (0,1]", f)
		}
	}
	if p.Shards < 0 || p.Regions < 0 {
		return fmt.Errorf("shards %d, regions %d: want non-negative counts", p.Shards, p.Regions)
	}
	return nil
}

// Takes reports whether the experiment consumes the named Params field.
func (e Experiment) Takes(field string) bool { return slices.Contains(e.takes, field) }

// With returns the experiment reshaped by p: Run rebound to the fields
// it takes and Title suffixed with what was changed. Fields it does not
// take are ignored, so With(Params{}) — and With on E1–E10 — returns the
// experiment unchanged.
func (e Experiment) With(p Params) (Experiment, error) {
	if err := p.validate(); err != nil {
		return e, err
	}
	rebind := false
	for _, f := range p.Fields() {
		if e.Takes(f) {
			e.Title += p.tag(f, e.grid)
			rebind = true
		}
	}
	if rebind {
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
