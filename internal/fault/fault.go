package fault

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// Event is one injected fault, as recorded in the injector's log, with
// the recovery measurements attached to it.
type Event struct {
	At     sim.Time // when the step fired
	Op     Op
	Target string
	Index  int
	// Watched marks the event carrying its instant's convergence watch.
	// Steps that fire at the same simulated instant are one compound
	// failure — a targeted multi-cut, a cut-under-crash — and the
	// routing protocol recovers from them once, so the injector watches
	// them once: the first event of the group is Watched and holds the
	// group's measurements, the rest are logged unwatched.
	Watched bool
	// Partitioned records that the failure left the topology split
	// (reachability census found more than one component, or stranded
	// nodes). The watch then expects each router to reach only its own
	// component's prefixes; a partition that reconverges on both sides
	// is Reconverged AND Partitioned, not unreconverged.
	Partitioned bool
	// Reconverged reports whether every running RIP router reached a
	// live route to everything the oracle says it can reach, before the
	// next event fired (or the run ended); ReconvergeAfter is how long
	// that took.
	Reconverged     bool
	ReconvergeAfter sim.Duration
	// LostInWindow counts frames swallowed during the blackout this
	// event closed: set on Heal (frames the cut medium dropped) and on
	// Restore (frames that died at the crashed node's interfaces).
	LostInWindow uint64
}

// pollInterval is how often the injector re-checks routing
// convergence while a recovery is being measured. Polling runs only
// between an injected fault and the moment every router has
// re-converged; an idle injector schedules nothing.
const pollInterval = 50 * time.Millisecond

// Injector drives a Schedule against a live internet and measures
// recovery. Create with New, then Arm before running it. Its steps and
// polls are observers on the internet's shard group (sim.ShardGroup.At),
// so they reach every node, net and RIP router of every region.
type Injector struct {
	nw    *core.Network
	sched Schedule

	log []Event

	// Loss-accounting windows open between a fault and its recovery.
	openCut   map[string]uint64 // net -> LostWhileDown of all its media at cut
	openCrash map[string]uint64 // node -> down-drop counters at crash
	baseLoss  map[string]float64
	totalLost uint64

	// Convergence watch: pending routers and the event being timed.
	// census is the reachability census taken when the watch opened —
	// topology only changes at injected events, so it stays valid for
	// the whole watch and replaces a per-poll, per-router BFS.
	watchEvent int
	watchFrom  sim.Time
	pending    map[string]bool
	pollArmed  bool
	pollFn     func()
	census     *core.Census

	// hopLimit bounds the forwarding-walk oracle; loopExits counts
	// walks that exhausted it (a forwarding loop, when the limit is
	// above the topology diameter) instead of dying at a table hole.
	hopLimit  int
	loopExits uint64

	// Per-router reconvergence durations, one per watched event.
	routerTimes map[string][]sim.Duration
}

// New creates an injector for the internet nw is a region of, running
// schedule sched with offsets counted from the moment Arm is called.
func New(nw *core.Network, sched Schedule) *Injector {
	in := &Injector{
		nw:          nw,
		sched:       sched,
		openCut:     make(map[string]uint64),
		openCrash:   make(map[string]uint64),
		baseLoss:    make(map[string]float64),
		pending:     make(map[string]bool),
		routerTimes: make(map[string][]sim.Duration),
		watchEvent:  -1,
	}
	in.pollFn = in.pollTick
	return in
}

// SetHopLimit bounds the forwarding-walk oracle at n hops. Callers who
// know the topology diameter should set a bound just above it, so a
// walk that exhausts the budget really is a forwarding loop (counted in
// Metrics as route_loop_exits) and not a legitimate long path. Zero
// restores core.DefaultHopLimit.
func (in *Injector) SetHopLimit(n int) { in.hopLimit = n }

// Arm registers every step of the schedule as an observer, offsets
// counted from now, after checking that the internet has every node,
// net and interface the steps name: a step it lacks is refused here,
// before anything fires. Steps sharing an offset are grouped into one
// compound event: all of them fire back to back at that instant and the
// group is watched to reconvergence once, on its first event —
// otherwise a simultaneous multi-cut would supersede its own watch and
// count every cut but the last as unreconverged. All closures are bound
// here, up front: between faults the armed injector allocates nothing
// and schedules nothing, preserving the zero-allocation datagram hot
// path.
func (in *Injector) Arm() error {
	for _, st := range in.sched.Steps {
		if _, err := in.resolve(st); err != nil {
			return fmt.Errorf("fault: step %q: %w", st, err)
		}
	}
	steps := make([]Step, len(in.sched.Steps))
	copy(steps, in.sched.Steps)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	g, now := in.nw.Group(), in.nw.Now()
	for i := 0; i < len(steps); {
		j := i + 1
		for j < len(steps) && steps[j].At == steps[i].At {
			j++
		}
		group := steps[i:j]
		g.At(now.Add(group[0].At), func() { in.applyGroup(group) })
		i = j
	}
	return nil
}

// resolve finds the media of the net st names (both halves of a cross
// trunk), or checks that the internet holds the node it names.
func (in *Injector) resolve(st Step) ([]phys.Medium, error) {
	switch st.Op {
	case OpCut, OpHeal, OpStormStart, OpStormEnd:
		if media := in.nw.Media(st.Target); media != nil {
			return media, nil
		}
		return nil, fmt.Errorf("no net %s in the internet", st.Target)
	}
	switch {
	case in.nw.Net(st.Target) == nil:
		return nil, fmt.Errorf("no node %s in the internet", st.Target)
	case (st.Op == OpIfDown || st.Op == OpIfUp) && in.nw.Node(st.Target).Interface(st.Index) == nil:
		return nil, fmt.Errorf("%s has no interface %d", st.Target, st.Index)
	}
	return nil, nil
}

// applyGroup fires one simultaneity group: every step injects and logs,
// then the group's first event takes the convergence watch.
func (in *Injector) applyGroup(group []Step) {
	first := len(in.log)
	for _, st := range group {
		in.apply(st)
	}
	in.log[first].Watched = true
	in.startWatch(first)
}

// apply fires one step: inject the fault and log the event.
func (in *Injector) apply(st Step) {
	ev := Event{At: in.nw.Now(), Op: st.Op, Target: st.Target, Index: st.Index}
	media, _ := in.resolve(st) // Arm refused a step it cannot resolve
	switch st.Op {
	case OpCut:
		if !slices.ContainsFunc(media, phys.Medium.Down) {
			in.openCut[st.Target] = lostWhileDown(media)
			in.nw.SetNetDown(st.Target, true)
		}
	case OpHeal:
		in.nw.SetNetDown(st.Target, false)
		if snap, ok := in.openCut[st.Target]; ok {
			ev.LostInWindow = lostWhileDown(media) - snap
			in.totalLost += ev.LostInWindow
			delete(in.openCut, st.Target)
		}
	case OpCrash:
		if _, open := in.openCrash[st.Target]; !open {
			in.openCrash[st.Target] = downDrops(in.nw.Node(st.Target))
			in.nw.CrashNode(st.Target)
		}
	case OpRestore:
		in.nw.RestoreNode(st.Target)
		if snap, ok := in.openCrash[st.Target]; ok {
			ev.LostInWindow = downDrops(in.nw.Node(st.Target)) - snap
			in.totalLost += ev.LostInWindow
			delete(in.openCrash, st.Target)
		}
	case OpIfDown, OpIfUp:
		in.nw.Node(st.Target).Interface(st.Index).NIC.SetUp(st.Op == OpIfUp)
	case OpStormStart:
		if _, open := in.baseLoss[st.Target]; !open {
			in.baseLoss[st.Target] = media[0].Loss()
		}
		for _, m := range media {
			m.SetLoss(st.Level)
		}
	case OpStormEnd:
		if base, ok := in.baseLoss[st.Target]; ok {
			for _, m := range media {
				m.SetLoss(base)
			}
			delete(in.baseLoss, st.Target)
		}
	}
	in.log = append(in.log, ev)
}

// lostWhileDown totals the frames a net's media have swallowed cut.
func lostWhileDown(media []phys.Medium) uint64 {
	var total uint64
	for _, m := range media {
		total += m.LostWhileDown()
	}
	return total
}

// downDrops totals the frames that have died at the node's interfaces:
// queued frames flushed or sent while down, plus arrivals at a down
// interface.
func downDrops(n *stack.Node) uint64 {
	var total uint64
	for _, ifc := range n.Interfaces() {
		st := ifc.NIC.Stats()
		total += st.TxDrops + st.RxDown
	}
	return total
}

// startWatch begins timing reconvergence for event evIdx. A group that
// fires while a previous watch is still pending supersedes it: the
// earlier event simply never records a reconvergence (counted by
// Metrics as unreconverged). The watch opens with a fresh reachability
// census — the oracle expects each router to reach only what the
// post-failure topology lets it reach, so a permanent partition
// reconverges (both sides settle) and is flagged Partitioned rather
// than pending forever.
func (in *Injector) startWatch(evIdx int) {
	in.watchEvent = evIdx
	in.watchFrom = in.nw.Now()
	in.census = in.nw.PartitionCensus()
	in.log[evIdx].Partitioned = in.census.Components > 1
	clear(in.pending)
	for _, name := range in.nw.RIPNodes() {
		if in.nw.RIP(name).Running() {
			in.pending[name] = true
		}
	}
	in.check()
	if len(in.pending) > 0 && !in.pollArmed {
		in.pollArmed = true
		in.nw.Group().At(in.nw.Now().Add(pollInterval), in.pollFn)
	}
}

// pollTick re-checks convergence and re-arms itself while any router is
// still pending.
func (in *Injector) pollTick() {
	in.pollArmed = false
	if len(in.pending) == 0 {
		return
	}
	in.check()
	if len(in.pending) > 0 {
		in.pollArmed = true
		in.nw.Group().At(in.nw.Now().Add(pollInterval), in.pollFn)
	}
}

// check tests every pending router against the reachability oracle and
// records reconvergence times.
func (in *Injector) check() {
	now := in.nw.Now()
	for _, name := range in.nw.RIPNodes() {
		if !in.pending[name] {
			continue
		}
		r := in.nw.RIP(name)
		if !r.Running() {
			// Crashed mid-watch; its reboot will be watched separately.
			delete(in.pending, name)
			continue
		}
		if in.converged(name, r) {
			delete(in.pending, name)
			in.routerTimes[name] = append(in.routerTimes[name], now.Sub(in.watchFrom))
		}
	}
	if len(in.pending) == 0 && in.watchEvent >= 0 {
		ev := &in.log[in.watchEvent]
		ev.Reconverged = true
		ev.ReconvergeAfter = now.Sub(in.watchFrom)
		in.watchEvent = -1
	}
}

// converged reports whether router name has genuinely recovered: its
// RIP state holds a live route to everything the census says its
// component can reach, and each of those routes actually forwards — a
// stale entry still pointing through a dead gateway keeps
// metric < Infinity until the protocol notices, and must not count as
// reconverged. A forwarding walk that exhausts the hop budget is a
// loop, counted separately from dead routes.
func (in *Injector) converged(name string, r *rip.Router) bool {
	want := in.census.Prefixes(name)
	if !r.Converged(want) {
		return false
	}
	for _, p := range want {
		if v := in.nw.CheckRoute(name, p, in.hopLimit); v != core.RouteDelivered {
			if v == core.RouteLooped {
				in.loopExits++
			}
			return false
		}
	}
	return true
}

// Events returns the log of fired events with their measurements.
func (in *Injector) Events() []Event { return slices.Clone(in.log) }

// ReconvergeDurations returns every per-router reconvergence time
// measured so far, router-major in RIPNodes order — the raw sample for
// distribution statistics (percentiles across routers and events).
func (in *Injector) ReconvergeDurations() []sim.Duration {
	var out []sim.Duration
	for _, name := range in.nw.RIPNodes() {
		out = append(out, in.routerTimes[name]...)
	}
	return out
}

// TotalLost returns the frames lost across every closed blackout
// window so far.
func (in *Injector) TotalLost() uint64 { return in.totalLost }

// Metric is one named recovery measurement, shaped for exp.Result.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Metrics aggregates the recovery record into named metrics with a
// deterministic order and fixed naming, so harness campaigns can
// aggregate them across replicas:
//
//	events_injected        events fired (every step of every group)
//	events_watched         compound-failure groups watched to reconvergence
//	events_reconverged     watched groups that fully reconverged
//	events_unreconverged   watched groups superseded or still pending at the end
//	events_partitioned     watched groups whose failure split the topology
//	reconverge_mean_s      mean time from event to full reconvergence
//	reconverge_max_s       worst such time
//	blackout_lost_frames   frames swallowed during closed blackout windows
//	route_loop_exits       oracle walks that exhausted the hop budget (loops)
//	reconverge_<node>_mean_s   per-router mean reconvergence time
func (in *Injector) Metrics() []Metric {
	var ms []Metric
	watched, reconverged, partitioned := 0, 0, 0
	var sum, maxd sim.Duration
	for i := range in.log {
		if !in.log[i].Watched {
			continue
		}
		watched++
		if in.log[i].Partitioned {
			partitioned++
		}
		if in.log[i].Reconverged {
			reconverged++
			sum += in.log[i].ReconvergeAfter
			maxd = max(maxd, in.log[i].ReconvergeAfter)
		}
	}
	ms = append(ms,
		Metric{"events_injected", "", float64(len(in.log))},
		Metric{"events_watched", "", float64(watched)},
		Metric{"events_reconverged", "", float64(reconverged)},
		Metric{"events_unreconverged", "", float64(watched - reconverged)},
		Metric{"events_partitioned", "", float64(partitioned)},
	)
	mean := 0.0
	if reconverged > 0 {
		mean = sum.Seconds() / float64(reconverged)
	}
	ms = append(ms,
		Metric{"reconverge_mean_s", "s", mean},
		Metric{"reconverge_max_s", "s", maxd.Seconds()},
		Metric{"blackout_lost_frames", "frames", float64(in.totalLost)},
		Metric{"route_loop_exits", "", float64(in.loopExits)},
	)
	for _, name := range in.nw.RIPNodes() {
		times := in.routerTimes[name]
		m := 0.0
		for _, d := range times {
			m += d.Seconds()
		}
		if len(times) > 0 {
			m /= float64(len(times))
		}
		ms = append(ms, Metric{"reconverge_" + name + "_mean_s", "s", m})
	}
	return ms
}
