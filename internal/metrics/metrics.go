// Package metrics is the telemetry spine: one per-kernel registry of
// counters and gauges, organized as node/layer/name descriptor paths,
// that every layer of the simulated internet (phys, packet pool, ipv4
// reassembly, stack, tcp, rip, egp) feeds automatically.
//
// The 1988 paper's seventh goal — accountability — notes the
// architecture shipped with only "weak" tools for resource measurement.
// The reproduction recreated that weakness as half a dozen incompatible
// ad-hoc Stats structs; this package unifies them without touching the
// hot path: a counter is a plain *uint64 bound once at setup (mirroring
// how fault.Arm prebinds closures), so the code that increments it never
// sees an interface, a map, or an allocation. Gauges are closures read
// only when a snapshot is taken.
//
// A Registry belongs to one simulation kernel (For), exactly like
// packet pools: parallel campaign replicas each get their own registry,
// so no cross-replica state exists and exports are deterministic at any
// worker count.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"darpanet/internal/sim"
)

// binding is one registered descriptor: a counter pointer or a gauge
// closure, never both.
type binding struct {
	path    string
	counter *uint64
	gauge   func() uint64
}

// value reads the descriptor: the counter, or the gauge's closure.
func (b *binding) value() uint64 {
	switch {
	case b.counter != nil:
		return *b.counter
	case b.gauge != nil:
		return b.gauge()
	}
	return 0
}

// Registry holds the descriptors registered by every layer driven by one
// kernel. Registration happens at topology-construction time; the only
// operations during a run are the layers' own uint64 increments.
//
// It keeps one binding per descriptor and nothing else: Snapshot puts
// the bindings in path order and tells two registrations of one path
// apart, not Counter or Gauge.
type Registry struct {
	bindings []binding
}

// NewRegistry returns an empty registry. Most callers want For instead.
func NewRegistry() *Registry { return &Registry{} }

// regKey is the kernel-value key under which a kernel's registry lives.
type regKey struct{}

// For returns the metrics registry of kernel k, creating it on first
// use. One registry per kernel — the same no-globals rule that keeps
// parallel campaigns deterministic (see stack.PoolFor).
func For(k *sim.Kernel) *Registry {
	if r, ok := k.Value(regKey{}).(*Registry); ok {
		return r
	}
	r := NewRegistry()
	k.SetValue(regKey{}, r)
	return r
}

// Counter binds the uint64 at v as the descriptor node/layer/name. The
// owner keeps incrementing the field exactly as before registration;
// the registry only reads it at snapshot time.
func (r *Registry) Counter(node, layer, name string, v *uint64) {
	r.add(node, layer, name, binding{counter: v})
}

// Gauge binds fn as the descriptor node/layer/name; fn is invoked only
// when a snapshot is taken and must be cheap and side-effect free.
func (r *Registry) Gauge(node, layer, name string, fn func() uint64) {
	r.add(node, layer, name, binding{gauge: fn})
}

// add appends binding b at the path node/layer/name. The path may
// repeat an earlier one's (two media may attach stations with the same
// name); Snapshot tells them apart.
func (r *Registry) add(node, layer, name string, b binding) {
	if r == nil {
		return
	}
	b.path = node + "/" + layer + "/" + name
	r.bindings = append(r.bindings, b)
}

// Len returns the number of registered descriptors.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.bindings)
}

// fold splits a descriptor path into its base — a repeat's "~n" folded
// away — and its kind, the base without its node segment:
// "g7/nic/tx_frames~2" is base "g7/nic/tx_frames", kind "nic/tx_frames".
func fold(path string) (base, kind string) {
	base = path
	if i := strings.LastIndexByte(path, '~'); i >= 0 && strings.IndexByte(path[i:], '/') < 0 {
		base = path[:i]
	}
	return base, base[strings.IndexByte(base, '/')+1:]
}

// Entry is one descriptor's value at snapshot time.
type Entry struct {
	Path  string
	Value uint64
}

// Snapshot is a point-in-time reading of a registry, sorted by path.
type Snapshot []Entry

// Snapshot reads every descriptor and returns the values sorted by
// path, so two snapshots of the same topology are comparable
// entry-by-entry.
//
// A path registered more than once is uniquified deterministically: the
// second registration of path p reads as "p~2", the third "p~3", and so
// on, in registration order — topology-construction order, which is
// deterministic, so the suffixes are too. The registry's own bindings
// are kept in path order, stably, so only a snapshot taken after a
// registration broke that order sorts them.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	byPath := func(a, b binding) int { return strings.Compare(a.path, b.path) }
	if !slices.IsSortedFunc(r.bindings, byPath) {
		slices.SortStableFunc(r.bindings, byPath)
	}
	s := make(Snapshot, len(r.bindings))
	repeats := false
	for i := range r.bindings {
		b := &r.bindings[i]
		s[i] = Entry{Path: b.path, Value: b.value()}
		repeats = repeats || i > 0 && b.path == r.bindings[i-1].path
	}
	if repeats {
		uniquify(s)
	}
	return s
}

// uniquify suffixes each repeat of a path in the sorted snapshot s —
// "p~2", "p~3", … in the order the repeats stand — and sorts s again,
// since a suffixed path can sort past others ("p/x" < "p~2").
func uniquify(s Snapshot) {
	for i := 1; i < len(s); {
		j := i
		for j < len(s) && s[j].Path == s[i-1].Path {
			s[j].Path = fmt.Sprintf("%s~%d", s[j].Path, j-i+2)
			j++
		}
		i = j + 1
	}
	slices.SortStableFunc(s, func(a, b Entry) int { return strings.Compare(a.Path, b.Path) })
}

// Totals returns one entry per kind — a descriptor's layer/name, its
// node cut off — summed over every node, repeat and kernel of ks, and
// sorted by kind: the per-layer story of an internet too large to read
// node by node, however many regions it was cut into.
func Totals(ks ...*sim.Kernel) Snapshot {
	sums := map[string]uint64{}
	for _, k := range ks {
		r := For(k)
		for i := range r.bindings {
			_, kind := fold(r.bindings[i].path)
			sums[kind] += r.bindings[i].value()
		}
	}
	t := make(Snapshot, 0, len(sums))
	for kind, v := range sums {
		t = append(t, Entry{Path: kind, Value: v})
	}
	slices.SortFunc(t, func(a, b Entry) int { return strings.Compare(a.Path, b.Path) })
	return t
}

// Get returns the value at path (0, false when absent).
func (s Snapshot) Get(path string) (uint64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Path >= path })
	if i < len(s) && s[i].Path == path {
		return s[i].Value, true
	}
	return 0, false
}

// Sum adds up every entry whose base path (a repeat's "~n" folded away)
// ends in suffix at a "/" boundary or equals it: Sum("nic/tx_frames")
// totals the descriptor across all nodes and repeats of a snapshot, and
// reads the one entry of Totals.
func (s Snapshot) Sum(suffix string) uint64 {
	tail := "/" + suffix
	var total uint64
	for _, e := range s {
		if base, _ := fold(e.Path); base == suffix || strings.HasSuffix(base, tail) {
			total += e.Value
		}
	}
	return total
}

// Tree renders the snapshot as an indented node/layer/name tree for
// human reading (cmd/experiments -metrics).
func (s Snapshot) Tree() string {
	var b strings.Builder
	var open []string // currently open path prefix
	for _, e := range s {
		parts := strings.Split(e.Path, "/")
		leaf := parts[len(parts)-1]
		dirs := parts[:len(parts)-1]
		common := 0
		for common < len(dirs) && common < len(open) && dirs[common] == open[common] {
			common++
		}
		for i := common; i < len(dirs); i++ {
			fmt.Fprintf(&b, "%s%s/\n", strings.Repeat("  ", i), dirs[i])
		}
		open = append(open[:common], dirs[common:]...)
		fmt.Fprintf(&b, "%s%-24s %d\n", strings.Repeat("  ", len(dirs)), leaf, e.Value)
	}
	return b.String()
}
