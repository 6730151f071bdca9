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
//
// A node name must not contain '/': the registry orders node/layer/name
// paths by node and kind without rendering them.
package metrics

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"darpanet/internal/sim"
)

// binding is one registered descriptor: owners[owner], and either the
// counter it reads, of kind kinds[ref], or (counter nil) gauges[ref].
type binding struct {
	owner, ref uint32
	counter    *uint64
}

// gauge is a gauge's kind and closure, kept off the binding so that a
// counter, nine descriptors in ten, costs 16 bytes.
type gauge struct {
	kind uint32
	fn   func() uint64
}

// Registry holds the descriptors registered by every layer driven by one
// kernel. Registration happens at topology-construction time; the only
// operations during a run are the layers' own uint64 increments.
//
// No path is stored: owners gains an entry when the owner differs from
// the previous registration's (a node registers its descriptors
// together), and kinds holds each "/layer/name" once, so that a path is
// owner + kind; kindIDs finds a kind's index from its layer and name.
// Snapshot renders the paths, puts the bindings in path order and tells
// two registrations of one path apart, not Counter or Gauge.
type Registry struct {
	bindings []binding
	owners   []string
	kinds    []string
	gauges   []gauge
	kindIDs  map[[2]string]uint32
	sorted   int // bindings[:sorted] are in path order
	size     int // the bytes of every path, repeats' suffixes aside
}

// NewRegistry returns an empty registry. Most callers want For instead.
func NewRegistry() *Registry { return &Registry{kindIDs: map[[2]string]uint32{}} }

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
	r.add(node, layer, name, v, nil)
}

// Gauge binds fn as the descriptor node/layer/name; fn is invoked only
// when a snapshot is taken and must be cheap and side-effect free.
func (r *Registry) Gauge(node, layer, name string, fn func() uint64) {
	r.add(node, layer, name, nil, fn)
}

// add appends a binding at the path node/layer/name: a counter when v is
// set, else the gauge fn (a nil counter reads 0, as a nil fn does). The
// path may repeat an earlier one's (two media may attach stations with
// the same name); Snapshot tells them apart.
func (r *Registry) add(node, layer, name string, v *uint64, fn func() uint64) {
	if r == nil {
		return
	}
	if n := len(r.owners); n == 0 || r.owners[n-1] != node {
		r.owners = append(r.owners, node)
	}
	b := binding{uint32(len(r.owners) - 1), r.kind(layer, name), v}
	if v == nil {
		r.gauges = append(r.gauges, gauge{b.ref, fn})
		b.ref = uint32(len(r.gauges) - 1)
	}
	r.bindings = append(r.bindings, b)
	r.size += len(node) + 2 + len(layer) + len(name)
}

// kind returns the index of "/layer/name" in kinds, interning it on
// first use; a registry holds a few dozen.
func (r *Registry) kind(layer, name string) uint32 {
	key := [2]string{layer, name}
	if i, ok := r.kindIDs[key]; ok {
		return i
	}
	// A layer or a name may hold '/', so two keys can render one kind.
	k := "/" + layer + "/" + name
	i := slices.Index(r.kinds, k)
	if i < 0 {
		i = len(r.kinds)
		r.kinds = append(r.kinds, k)
	}
	r.kindIDs[key] = uint32(i)
	return uint32(i)
}

// kindOf returns the index of b's kind in kinds.
func (r *Registry) kindOf(b *binding) uint32 {
	if b.counter != nil {
		return b.ref
	}
	return r.gauges[b.ref].kind
}

// parts returns b's owner and kind: its path is owner + kind.
func (r *Registry) parts(b *binding) (owner, kind string) {
	return r.owners[b.owner], r.kinds[r.kindOf(b)]
}

// value reads the descriptor: the counter, or the gauge's closure.
func (r *Registry) value(b *binding) uint64 {
	if b.counter != nil {
		return *b.counter
	}
	if fn := r.gauges[b.ref].fn; fn != nil {
		return fn()
	}
	return 0
}

// comparePaths orders two bindings as strings.Compare orders their
// paths, without building them. An owner holds no '/', so where one
// owner is a prefix of the other, the byte after it decides against '/':
// "g1.if0/nic/…" sorts before "g1/ip/…" ('.' < '/').
func (r *Registry) comparePaths(a, b binding) int {
	oa, ka := r.parts(&a)
	ob, kb := r.parts(&b)
	if oa == ob {
		return strings.Compare(ka, kb)
	}
	n := min(len(oa), len(ob))
	if c := strings.Compare(oa[:n], ob[:n]); c != 0 {
		return c
	}
	if len(oa) < len(ob) {
		return cmp.Compare('/', ob[n])
	}
	return cmp.Compare(oa[n], '/')
}

// Len returns the number of registered descriptors.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.bindings)
}

// fold returns a snapshot path's base: a repeat's "~n" folded away.
func fold(path string) string {
	if i := strings.LastIndexByte(path, '~'); i >= 0 && strings.IndexByte(path[i:], '/') < 0 {
		return path[:i]
	}
	return path
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
// entry-by-entry. Each entry's Path is a piece of one string.
//
// A path registered more than once is uniquified deterministically: the
// second registration of path p reads as "p~2", the third "p~3", and so
// on, in registration order — topology-construction order, which is
// deterministic, so the suffixes are too. The registry's own bindings
// are kept in path order, stably: a snapshot checks those registered
// since the last one, and sorts only when they broke that order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	byPath := func(a, b binding) int { return r.comparePaths(a, b) }
	if !slices.IsSortedFunc(r.bindings[max(r.sorted-1, 0):], byPath) {
		slices.SortStableFunc(r.bindings, byPath)
	}
	r.sorted = len(r.bindings)
	// Write the paths, parking each one's end in its entry's Value.
	s := make(Snapshot, len(r.bindings))
	var sb strings.Builder
	sb.Grow(r.size)
	var digits [20]byte
	repeat, repeats := 1, false
	for i := range r.bindings {
		b := &r.bindings[i]
		owner, kind := r.parts(b)
		sb.WriteString(owner)
		sb.WriteString(kind)
		if i > 0 && r.kindOf(&r.bindings[i-1]) == r.kindOf(b) && r.owners[r.bindings[i-1].owner] == owner {
			repeat, repeats = repeat+1, true
			sb.WriteByte('~')
			sb.Write(strconv.AppendInt(digits[:0], int64(repeat), 10))
		} else {
			repeat = 1
		}
		s[i].Value = uint64(sb.Len())
	}
	paths, start := sb.String(), 0
	for i := range s {
		end := int(s[i].Value)
		s[i] = Entry{Path: paths[start:end], Value: r.value(&r.bindings[i])}
		start = end
	}
	// A suffixed path can sort past others ("p/x" < "p~2").
	if repeats {
		slices.SortStableFunc(s, func(a, b Entry) int { return strings.Compare(a.Path, b.Path) })
	}
	return s
}

// Totals returns one entry per kind — a descriptor's layer/name, its
// node cut off — summed over every node, repeat and kernel of ks, and
// sorted by kind: the per-layer story of an internet too large to read
// node by node, however many regions it was cut into.
func Totals(ks ...*sim.Kernel) Snapshot {
	sums := map[string]uint64{}
	for _, k := range ks {
		r := For(k)
		byKind := make([]uint64, len(r.kinds))
		for i := range r.bindings {
			b := &r.bindings[i]
			byKind[r.kindOf(b)] += r.value(b)
		}
		for id, v := range byKind {
			sums[r.kinds[id][1:]] += v
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
		if base := fold(e.Path); base == suffix || strings.HasSuffix(base, tail) {
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
