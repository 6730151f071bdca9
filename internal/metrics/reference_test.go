package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"darpanet/internal/sim"
)

// This file keeps the path-string registry the interned one replaced —
// a binding that stores its node/layer/name path, sorted and suffixed
// as strings — as the reference FuzzRegistryMatchesPathReference holds
// the Registry to. Only its names changed (ref…), and its Totals reads
// registries instead of kernels.

// refBinding is one registered descriptor: a counter pointer or a gauge
// closure, never both.
type refBinding struct {
	path    string
	counter *uint64
	gauge   func() uint64
}

// value reads the descriptor: the counter, or the gauge's closure.
func (b *refBinding) value() uint64 {
	switch {
	case b.counter != nil:
		return *b.counter
	case b.gauge != nil:
		return b.gauge()
	}
	return 0
}

// refRegistry holds the descriptors registered by every layer driven by one
// kernel. Registration happens at topology-construction time; the only
// operations during a run are the layers' own uint64 increments.
//
// It keeps one refBinding per descriptor and nothing else: Snapshot puts
// the bindings in path order and tells two registrations of one path
// apart, not Counter or Gauge.
type refRegistry struct {
	bindings []refBinding
}

// Counter binds the uint64 at v as the descriptor node/layer/name. The
// owner keeps incrementing the field exactly as before registration;
// the registry only reads it at snapshot time.
func (r *refRegistry) Counter(node, layer, name string, v *uint64) {
	r.add(node, layer, name, refBinding{counter: v})
}

// Gauge binds fn as the descriptor node/layer/name; fn is invoked only
// when a snapshot is taken and must be cheap and side-effect free.
func (r *refRegistry) Gauge(node, layer, name string, fn func() uint64) {
	r.add(node, layer, name, refBinding{gauge: fn})
}

// add appends refBinding b at the path node/layer/name. The path may
// repeat an earlier one's (two media may attach stations with the same
// name); Snapshot tells them apart.
func (r *refRegistry) add(node, layer, name string, b refBinding) {
	if r == nil {
		return
	}
	b.path = node + "/" + layer + "/" + name
	r.bindings = append(r.bindings, b)
}

// Len returns the number of registered descriptors.
func (r *refRegistry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.bindings)
}

// refFold splits a descriptor path into its base — a repeat's "~n" folded
// away — and its kind, the base without its node segment:
// "g7/nic/tx_frames~2" is base "g7/nic/tx_frames", kind "nic/tx_frames".
func refFold(path string) (base, kind string) {
	base = path
	if i := strings.LastIndexByte(path, '~'); i >= 0 && strings.IndexByte(path[i:], '/') < 0 {
		base = path[:i]
	}
	return base, base[strings.IndexByte(base, '/')+1:]
}

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
func (r *refRegistry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	byPath := func(a, b refBinding) int { return strings.Compare(a.path, b.path) }
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
		refUniquify(s)
	}
	return s
}

// refUniquify suffixes each repeat of a path in the sorted snapshot s —
// "p~2", "p~3", … in the order the repeats stand — and sorts s again,
// since a suffixed path can sort past others ("p/x" < "p~2").
func refUniquify(s Snapshot) {
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

// refTotals returns one entry per kind — a descriptor's layer/name, its
// node cut off — summed over every node, repeat and kernel of ks, and
// sorted by kind: the per-layer story of an internet too large to read
// node by node, however many regions it was cut into.
func refTotals(rs ...*refRegistry) Snapshot {
	sums := map[string]uint64{}
	for _, r := range rs {
		for i := range r.bindings {
			_, kind := refFold(r.bindings[i].path)
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

// fuzzOwners are owners whose paths sort against each other in the ways
// the comparator must get right: "g1" is a prefix of the rest, and '.'
// and '-' sort before '/' while '~' and the digits sort after it.
var fuzzOwners = []string{"g1", "g1.if0", "g1.if1", "g1-x", "g10", "g1~2", "g", "kernel"}

// fuzzKinds are layer/name pairs, two of them one kind ("l"/"p/x" and
// "l/p"/"x"), and one ("l"/"p") a prefix of others.
var fuzzKinds = [][2]string{
	{"nic", "tx_frames"}, {"nic", "tx"}, {"ip", "forwarded"}, {"l", "p"},
	{"l", "p/x"}, {"l/p", "x"}, {"l", "p.x"}, {"a.b", "c"},
}

// fuzzOwner names an owner by one input byte: a named owner, or one to
// three characters of "g1.-~0".
func fuzzOwner(a byte) string {
	if int(a) < len(fuzzOwners) {
		return fuzzOwners[a]
	}
	const alphabet = "g1.-~0"
	b := make([]byte, 1+int(a)%3)
	for i, x := 0, int(a)/3; i < len(b); i, x = i+1, x/len(alphabet) {
		b[i] = alphabet[x%len(alphabet)]
	}
	return string(b)
}

// FuzzRegistryMatchesPathReference feeds the Registry and the reference
// the same registrations, on two kernels, and compares them at every
// check: each kernel's Snapshot (paths, values and order), Sum of every
// kind and of a few path tails, and Totals over both kernels. Each op
// is three bytes — what, owner, kind — and what picks the kernel and one
// of: a counter, a nil counter, a gauge, a bump of an earlier
// descriptor's value, or a check. Owners and kinds come from small sets,
// so paths repeat, and counters and gauges share paths.
func FuzzRegistryMatchesPathReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1988))
	for _, n := range []int{12, 60, 300, 1500} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	// g1, g1.if0 and g10 register interleaved, a path repeats across a
	// check, and a gauge and a counter share one.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 4, 4, 0, 7, 0, 0, 0, 0, 0, 0, 0, 3, 4, 1, 2, 6, 0, 9, 7, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ks := []*sim.Kernel{sim.NewKernel(1), sim.NewKernel(2)}
		refs := []*refRegistry{{}, {}}
		vals := make([]uint64, 0, len(ops)) // never grows: counters point into it
		check := func() {
			for i, k := range ks {
				got, want := For(k).Snapshot(), refs[i].Snapshot()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("kernel %d: snapshot\n%v\nwant\n%v", i, got, want)
				}
				tails := []string{"x", "p/x", "g1/nic/tx", "g1.if0/l/p"}
				for _, kd := range fuzzKinds {
					tails = append(tails, kd[0]+"/"+kd[1])
				}
				for _, tail := range tails {
					if g, w := got.Sum(tail), want.Sum(tail); g != w {
						t.Fatalf("kernel %d: Sum(%q) = %d, want %d", i, tail, g, w)
					}
				}
			}
			if got, want := Totals(ks...), refTotals(refs...); !reflect.DeepEqual(got, want) {
				t.Fatalf("Totals\n%v\nwant\n%v", got, want)
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			what, owner, kd := ops[0], fuzzOwner(ops[1]), fuzzKinds[int(ops[2])%len(fuzzKinds)]
			k := int(what/8) % len(ks)
			r, ref := For(ks[k]), refs[k]
			switch what % 8 {
			case 0, 1, 2:
				vals = append(vals, uint64(ops[2]))
				r.Counter(owner, kd[0], kd[1], &vals[len(vals)-1])
				ref.Counter(owner, kd[0], kd[1], &vals[len(vals)-1])
			case 3:
				r.Counter(owner, kd[0], kd[1], nil)
				ref.Counter(owner, kd[0], kd[1], nil)
			case 4, 5:
				vals = append(vals, uint64(ops[1]))
				v := &vals[len(vals)-1]
				fn := func() uint64 { return *v * 3 }
				r.Gauge(owner, kd[0], kd[1], fn)
				ref.Gauge(owner, kd[0], kd[1], fn)
			case 6:
				if len(vals) > 0 {
					vals[int(ops[1])%len(vals)] += uint64(ops[2]) + 1
				}
			case 7:
				check()
			}
		}
		for i, k := range ks {
			if For(k).Len() != refs[i].Len() {
				t.Fatalf("kernel %d: Len %d, want %d", i, For(k).Len(), refs[i].Len())
			}
		}
		check()
	})
}
