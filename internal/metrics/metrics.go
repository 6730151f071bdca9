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
	"cmp"
	"encoding/json"
	"fmt"
	"io"
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

// Registry holds the descriptors registered by every layer driven by one
// kernel. Registration happens at topology-construction time; the only
// operations during a run are the layers' own uint64 increments.
//
// It keeps one binding per descriptor and nothing else: two
// registrations of one path are told apart at Snapshot time, not here.
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

// Path joins a descriptor path from its node, layer and name parts.
func Path(node, layer, name string) string {
	return node + "/" + layer + "/" + name
}

// Counter binds the uint64 at v as the descriptor node/layer/name. The
// owner keeps incrementing the field exactly as before registration;
// the registry only reads it at snapshot time.
func (r *Registry) Counter(node, layer, name string, v *uint64) {
	r.add(binding{path: Path(node, layer, name), counter: v})
}

// Gauge binds fn as the descriptor node/layer/name; fn is invoked only
// when a snapshot is taken and must be cheap and side-effect free.
func (r *Registry) Gauge(node, layer, name string, fn func() uint64) {
	r.add(binding{path: Path(node, layer, name), gauge: fn})
}

// add appends a binding. Its path may repeat an earlier one's (two
// media may attach stations with the same name); Snapshot tells them
// apart.
func (r *Registry) add(b binding) {
	if r == nil {
		return
	}
	r.bindings = append(r.bindings, b)
}

// Len returns the number of registered descriptors.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.bindings)
}

// Entry is one descriptor's value at snapshot time.
type Entry struct {
	Path  string `json:"path"`
	Value uint64 `json:"value"`
}

// Snapshot is a point-in-time reading of a registry, sorted by path.
type Snapshot []Entry

// Snapshot reads every descriptor and returns the values sorted by
// path, so two snapshots of the same topology are comparable
// entry-by-entry and the JSON rendering is byte-stable.
//
// A path registered more than once is uniquified deterministically: the
// second registration of path p reads as "p~2", the third "p~3", and so
// on, in registration order — topology-construction order, which is
// deterministic, so the suffixes are too.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	// Sort binding indices first, parked in Value: ties on a path then
	// break by registration order.
	s := make(Snapshot, len(r.bindings))
	for i, b := range r.bindings {
		s[i] = Entry{Path: b.path, Value: uint64(i)}
	}
	slices.SortFunc(s, func(a, b Entry) int {
		if c := strings.Compare(a.Path, b.Path); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
	repeats := false
	for i := range s {
		b := &r.bindings[s[i].Value]
		switch {
		case b.counter != nil:
			s[i].Value = *b.counter
		case b.gauge != nil:
			s[i].Value = b.gauge()
		default:
			s[i].Value = 0
		}
		repeats = repeats || i > 0 && s[i].Path == s[i-1].Path
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

// Get returns the value at path (0, false when absent).
func (s Snapshot) Get(path string) (uint64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Path >= path })
	if i < len(s) && s[i].Path == path {
		return s[i].Value, true
	}
	return 0, false
}

// Sum adds up every entry whose path ends in suffix at a "/" boundary
// (or equals it): Sum("nic/tx_frames") totals the descriptor across all
// nodes. Uniquified duplicate paths ("...~2") are included.
func (s Snapshot) Sum(suffix string) uint64 {
	var total uint64
	for _, e := range s {
		p := e.Path
		if i := strings.LastIndex(p, "~"); i >= 0 && !strings.Contains(p[i:], "/") {
			p = p[:i]
		}
		if p == suffix || strings.HasSuffix(p, "/"+suffix) {
			total += e.Value
		}
	}
	return total
}

// Sub returns the delta snapshot cur − prev: for every entry of cur,
// its value minus the matching entry of prev (absent in prev means the
// full value; a gauge that decreased clamps at zero).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for i, e := range s {
		if v, ok := prev.Get(e.Path); ok {
			if v >= e.Value {
				e.Value = 0
			} else {
				e.Value -= v
			}
		}
		out[i] = e
	}
	return out
}

// jsonDoc is the export schema: a versioned name plus the sorted entries.
type jsonDoc struct {
	Schema   string  `json:"schema"`
	Counters []Entry `json:"counters"`
}

// Schema is the JSON export schema identifier.
const Schema = "darpanet/metrics/v1"

// WriteJSON writes the snapshot as deterministic indented JSON under the
// darpanet/metrics/v1 schema. The byte stream depends only on the
// snapshot contents — never on worker count, wall clock, or map order —
// so exports are comparable byte for byte.
func (s Snapshot) WriteJSON(w io.Writer) error {
	doc := jsonDoc{Schema: Schema, Counters: s}
	if doc.Counters == nil {
		doc.Counters = []Entry{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
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
