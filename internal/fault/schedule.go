// Package fault is a deterministic, seed-driven fault injector for
// darpanet topologies: it drives scripted or randomized failure
// schedules — link cuts and heals, interface flaps, gateway crash and
// restart, loss storms — against a live core.Network on the simulation
// kernel, records every injected event with its timestamp, and measures
// recovery: time-to-reconverge per RIP router against a reachability
// oracle, and frames lost during each blackout window.
//
// The paper's survivability goal asks that conversations continue "as
// long as some path exists"; the CMU/SEI survivable-systems framing
// turns that into scenario-driven analysis — enumerate failure
// scenarios, trace them through the architecture, measure recognition
// and recovery. A Schedule is one such scenario; campaigns over seeded
// random schedules are the Monte Carlo version.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"darpanet/internal/sim"
	"darpanet/internal/spec"
)

// Op is one fault-injection operation.
type Op int

// The injectable operations. Cut/Heal act on a whole medium (the
// paper's "loss of networks"), Crash/Restore on a node (gateway
// failure), IfDown/IfUp on a single interface (a flapping link port),
// and StormStart/StormEnd raise and restore a medium's per-frame loss
// probability (a transient radio fade).
const (
	OpCut Op = iota
	OpHeal
	OpCrash
	OpRestore
	OpIfDown
	OpIfUp
	OpStormStart
	OpStormEnd
)

var opNames = [...]string{"cut", "heal", "crash", "restore", "ifdown", "ifup", "storm", "calm"}

// String returns the schedule-text spelling of the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Step is one scheduled fault event.
type Step struct {
	At     sim.Duration // offset from Arm time
	Op     Op
	Target string  // net name (cut/heal/storm) or node name (crash/restore/ifdown/ifup)
	Index  int     // interface index, for IfDown/IfUp
	Level  float64 // loss probability, for StormStart
}

// Schedule is a named sequence of fault events, ordered by time.
type Schedule struct {
	Name  string
	Steps []Step
}

// String renders the step as a line of schedule text.
func (st Step) String() string {
	switch st.Op {
	case OpIfDown, OpIfUp:
		return fmt.Sprintf("%s %s %s %d", st.At, st.Op, st.Target, st.Index)
	case OpStormStart:
		return fmt.Sprintf("%s %s %s %g", st.At, st.Op, st.Target, st.Level)
	}
	return fmt.Sprintf("%s %s %s", st.At, st.Op, st.Target)
}

// String renders the schedule back to its text form.
func (s Schedule) String() string {
	var b strings.Builder
	for _, st := range s.Steps {
		b.WriteString(st.String() + "\n")
	}
	return b.String()
}

// Parse reads a schedule from its text form: one event per line,
// `<offset> <op> <target> [args]`, with blank lines and #-comments
// ignored. Offsets are Go durations ("5s", "1.5s", "500ms"). The ops:
//
//	5s  cut   n1            take net n1 down
//	12s heal  n1            bring it back
//	30s crash gwB           crash node gwB (stack teardown + RIP state loss)
//	50s restore gwB         reboot it
//	20s ifdown gwB 1        take gwB's interface #1 down
//	22s ifup   gwB 1        and back up
//	70s storm lanB 0.4 5s   loss 0.4 on lanB for 5s (expands to storm+calm;
//	                        without the duration the storm runs until a calm)
//	75s calm  lanB          end a storm explicitly
//	55s flap  n2 3 500ms    3 cut/heal cycles, 500ms per half-cycle
//
// Steps are sorted by offset; ties keep file order. An offset is never
// negative, no step may fall past the largest Duration, and a flap runs
// at most maxFlaps cycles.
func Parse(name, text string) (Schedule, error) {
	s := Schedule{Name: name}
	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return s, fmt.Errorf("fault: line %d: want `<offset> <op> <target> [args]`, got %q", lineno+1, line)
		}
		at, err := time.ParseDuration(f[0])
		if err != nil || at < 0 {
			return s, fmt.Errorf("fault: line %d: bad offset %q (want a duration >= 0)", lineno+1, f[0])
		}
		target, op := f[2], Op(slices.Index(opNames[:], f[1]))
		switch f[1] {
		case "cut", "heal", "crash", "restore", "calm":
			s.Steps = append(s.Steps, Step{At: at, Op: op, Target: target})
		case "ifdown", "ifup":
			if len(f) < 4 {
				return s, fmt.Errorf("fault: line %d: want `%s <node> <ifindex>`", lineno+1, f[1])
			}
			idx, err := spec.ParseInt(f[3], 0, math.MaxInt)
			if err != nil {
				return s, fmt.Errorf("fault: line %d: bad interface index %q", lineno+1, f[3])
			}
			s.Steps = append(s.Steps, Step{At: at, Op: op, Target: target, Index: idx})
		case "storm":
			if len(f) < 4 {
				return s, fmt.Errorf("fault: line %d: want `storm <net> <loss> [duration]`", lineno+1)
			}
			level, err := spec.ParseFloat(f[3])
			if err != nil || level < 0 || level >= 1 {
				return s, fmt.Errorf("fault: line %d: bad loss %q (want [0,1))", lineno+1, f[3])
			}
			s.Steps = append(s.Steps, Step{At: at, Op: OpStormStart, Target: target, Level: level})
			if len(f) >= 5 {
				dur, err := time.ParseDuration(f[4])
				if err != nil || dur <= 0 || dur > math.MaxInt64-at {
					return s, fmt.Errorf("fault: line %d: bad storm duration %q", lineno+1, f[4])
				}
				s.Steps = append(s.Steps, Step{At: at + dur, Op: OpStormEnd, Target: target})
			}
		case "flap":
			if len(f) < 5 {
				return s, fmt.Errorf("fault: line %d: want `flap <net> <count> <period>`", lineno+1)
			}
			count, err := spec.ParseInt(f[3], 1, maxFlaps)
			if err != nil {
				return s, fmt.Errorf("fault: line %d: bad flap count %q (want 1..%d)", lineno+1, f[3], maxFlaps)
			}
			// The last heal, at + (2·count−1)·period, must be a Duration.
			period, err := time.ParseDuration(f[4])
			if err != nil || period <= 0 || period > (math.MaxInt64-at)/time.Duration(2*count-1) {
				return s, fmt.Errorf("fault: line %d: bad flap period %q", lineno+1, f[4])
			}
			for i := 0; i < count; i++ {
				s.Steps = append(s.Steps,
					Step{At: at + time.Duration(2*i)*period, Op: OpCut, Target: target},
					Step{At: at + time.Duration(2*i+1)*period, Op: OpHeal, Target: target})
			}
		default:
			return s, fmt.Errorf("fault: line %d: unknown op %q", lineno+1, f[1])
		}
	}
	sort.SliceStable(s.Steps, func(i, j int) bool { return s.Steps[i].At < s.Steps[j].At })
	return s, nil
}

// maxFlaps bounds a flap line's cycle count, each cycle two steps: the
// presets flap 2 and 4 times.
const maxFlaps = 100

// MustParse is Parse for known-good schedule literals; it panics on error.
func MustParse(name, text string) Schedule {
	s, err := Parse(name, text)
	if err != nil {
		panic(err)
	}
	return s
}

// presets are canned scenarios for the E11 recovery topology (the E1
// square backbone with gwC double-homed onto lanB): nets lanA, lanB,
// n1–n4; gateways gwA–gwD; hosts h1, h2.
var presets = map[string]string{
	// One of everything, spaced so each recovery is observable.
	"mixed": `
		5s   cut n1
		20s  heal n1
		35s  crash gwB
		55s  restore gwB
		75s  ifdown gwC 0
		85s  ifup gwC 0
		95s  storm n3 0.3 10s
		115s flap n4 2 1s
	`,
	// Cut both trunks out of lanA at once: a true partition, then heal.
	"partition": `
		10s cut n1
		10s cut n4
		35s heal n1
		35s heal n4
	`,
	// The classic gateway death and rebirth.
	"crash": `
		10s crash gwB
		40s restore gwB
	`,
	// A flapping trunk: the pathological case for triggered updates.
	"flap": `
		10s flap n1 4 2s
	`,
}

// Preset returns a named canned schedule. The names: "mixed",
// "partition", "crash", "flap".
func Preset(name string) (Schedule, bool) {
	text, ok := presets[name]
	if !ok {
		return Schedule{}, false
	}
	return MustParse(name, text), true
}

// PresetNames lists the available presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RandomOptions parameterizes Random.
type RandomOptions struct {
	Nets     []string // cut/flap/storm targets
	Nodes    []string // crash targets
	Episodes int      // fault/recovery pairs to draw
	// Episodes begin uniformly in [Start, Start+Spread) and last
	// uniformly in [MinDwell, MaxDwell).
	Start, Spread      sim.Duration
	MinDwell, MaxDwell sim.Duration
	StormLoss          float64 // loss level for storm episodes
}

// Random draws a schedule of paired fault/recovery episodes from rng:
// each episode is a cut+heal, crash+restore, or storm on a target drawn
// uniformly. The same rng state always yields the same schedule, so a
// harness campaign seeded per-replica explores distinct but reproducible
// scenarios.
func Random(rng *rand.Rand, o RandomOptions) Schedule {
	if o.Episodes <= 0 {
		o.Episodes = 3
	}
	if o.MaxDwell <= o.MinDwell {
		o.MaxDwell = o.MinDwell + time.Second
	}
	if o.StormLoss <= 0 {
		o.StormLoss = 0.3
	}
	s := Schedule{Name: "random"}
	for i := 0; i < o.Episodes; i++ {
		at := o.Start + sim.Duration(rng.Int63n(int64(o.Spread)+1))
		dwell := o.MinDwell + sim.Duration(rng.Int63n(int64(o.MaxDwell-o.MinDwell)+1))
		kinds := 0
		if len(o.Nets) > 0 {
			kinds += 2 // cut, storm
		}
		if len(o.Nodes) > 0 {
			kinds++ // crash
		}
		if kinds == 0 {
			break
		}
		kind := rng.Intn(kinds)
		if len(o.Nets) == 0 {
			kind = 2
		}
		switch kind {
		case 0:
			net := o.Nets[rng.Intn(len(o.Nets))]
			s.Steps = append(s.Steps,
				Step{At: at, Op: OpCut, Target: net},
				Step{At: at + dwell, Op: OpHeal, Target: net})
		case 1:
			net := o.Nets[rng.Intn(len(o.Nets))]
			s.Steps = append(s.Steps,
				Step{At: at, Op: OpStormStart, Target: net, Level: o.StormLoss},
				Step{At: at + dwell, Op: OpStormEnd, Target: net})
		case 2:
			node := o.Nodes[rng.Intn(len(o.Nodes))]
			s.Steps = append(s.Steps,
				Step{At: at, Op: OpCrash, Target: node},
				Step{At: at + dwell, Op: OpRestore, Target: node})
		}
	}
	sort.SliceStable(s.Steps, func(i, j int) bool { return s.Steps[i].At < s.Steps[j].At })
	return s
}
