package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"darpanet/internal/sim"
)

func TestForIsPerKernelSingleton(t *testing.T) {
	k1 := sim.NewKernel(1)
	k2 := sim.NewKernel(1)
	if For(k1) != For(k1) {
		t.Fatal("For returned two registries for one kernel")
	}
	if For(k1) == For(k2) {
		t.Fatal("two kernels share a registry")
	}
}

func TestSnapshotSortedAndReadable(t *testing.T) {
	r := NewRegistry()
	var tx, rx uint64
	r.Counter("b", "nic", "tx_frames", &tx)
	r.Counter("a", "nic", "rx_frames", &rx)
	r.Gauge("a", "nic", "queued", func() uint64 { return 7 })
	tx, rx = 3, 5

	s := r.Snapshot()
	if len(s) != 3 || r.Len() != 3 {
		t.Fatalf("got %d entries, want 3", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1].Path >= s[i].Path {
			t.Fatalf("snapshot not sorted: %q before %q", s[i-1].Path, s[i].Path)
		}
	}
	if v, ok := s.Get("b/nic/tx_frames"); !ok || v != 3 {
		t.Fatalf("Get(b/nic/tx_frames) = %d,%v", v, ok)
	}
	if v, ok := s.Get("a/nic/queued"); !ok || v != 7 {
		t.Fatalf("Get(a/nic/queued) = %d,%v", v, ok)
	}
	if _, ok := s.Get("missing/x/y"); ok {
		t.Fatal("Get found a missing path")
	}
}

func TestDuplicatePathsUniquified(t *testing.T) {
	r := NewRegistry()
	var a, b, c uint64 = 1, 2, 3
	r.Counter("s1", "nic", "tx", &a)
	r.Counter("s1", "nic", "tx", &b)
	r.Counter("s1", "nic", "tx", &c)
	s := r.Snapshot()
	if v, ok := s.Get("s1/nic/tx"); !ok || v != 1 {
		t.Fatalf("base path = %d,%v", v, ok)
	}
	if v, ok := s.Get("s1/nic/tx~2"); !ok || v != 2 {
		t.Fatalf("~2 path = %d,%v", v, ok)
	}
	if v, ok := s.Get("s1/nic/tx~3"); !ok || v != 3 {
		t.Fatalf("~3 path = %d,%v", v, ok)
	}
	if got := s.Sum("nic/tx"); got != 6 {
		t.Fatalf("Sum over uniquified = %d, want 6", got)
	}
}

// TestDuplicateSuffixesFollowRegistrationOrder: the suffixes go by
// registration order, not by value, and hold across snapshots — a repeat
// registered after a Snapshot gets the next suffix — while a path that
// sorts between p and p~2 ("p/x") stays where the suffixed paths sort.
func TestDuplicateSuffixesFollowRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	var first, nested, second, third uint64 = 30, 5, 20, 10
	r.Counter("n", "l", "p", &first)
	r.Counter("n", "l", "p/x", &nested)
	r.Gauge("n", "l", "p", func() uint64 { return second })
	want := Snapshot{{"n/l/p", 30}, {"n/l/p/x", 5}, {"n/l/p~2", 20}}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
	r.Counter("n", "l", "p", &third)
	want = append(want, Entry{"n/l/p~3", 10})
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a later repeat: snapshot %v, want %v", got, want)
	}
}

// TestRegistryFootprint pins what a descriptor costs the registry that
// keeps it: one 16-byte binding (owner and kind ids, a counter pointer)
// with the binding slice's growth slack, a share of the owner table (one
// string header per run of one owner's registrations; the name's bytes
// are the owner's own), the kind table, and for a gauge a 16-byte side
// entry. No path is stored: on a registry shaped like a node's
// descriptors (nine counters and a gauge per owner) that is at most
// 24 B each, where a stored path alone was 15 to 19. The bytes are
// counted from the capacities the registry holds, as
// TestRouteTableFootprint counts a route table's, and the struct may
// hold nothing but its four tables, the kind index and two counts, so
// no per-descriptor state escapes the count. The index is counted as
// one key and id per kind. A snapshot with no repeated
// path allocates its entries and the one string its paths are cut from.
func TestRegistryFootprint(t *testing.T) {
	if size := unsafe.Sizeof(binding{}); size != 16 {
		t.Fatalf("binding is %d bytes, want 16", size)
	}
	if size, tables := unsafe.Sizeof(Registry{}), 4*unsafe.Sizeof([]byte(nil))+unsafe.Sizeof(map[[2]string]uint32(nil))+2*unsafe.Sizeof(0); size != tables {
		t.Fatalf("Registry is %d bytes, want %d: it holds more than its tables", size, tables)
	}
	const n = 10_000
	r := NewRegistry()
	counters := make([]uint64, n)
	for i := range counters {
		node, name := fmt.Sprintf("g%d", i/10), fmt.Sprintf("c%d", i%10)
		if i%10 == 9 {
			r.Gauge(node, "nic", name, func() uint64 { return counters[i] })
		} else {
			r.Counter(node, "nic", name, &counters[i])
		}
	}
	held := cap(r.bindings)*int(unsafe.Sizeof(binding{})) +
		cap(r.owners)*int(unsafe.Sizeof("")) +
		cap(r.gauges)*int(unsafe.Sizeof(gauge{})) +
		cap(r.kinds)*int(unsafe.Sizeof("")) +
		len(r.kindIDs)*int(unsafe.Sizeof([2]string{})+4)
	for _, k := range r.kinds {
		held += len(k)
	}
	if per := float64(held) / n; per > 24 {
		t.Fatalf("%d descriptors hold %.1f B each, want <= 24", n, per)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Snapshot() }); allocs != 2 {
		t.Fatalf("a snapshot of %d distinct paths made %.0f allocations, want 2", n, allocs)
	}
}

// TestSum: Sum totals a layer/name across nodes and repeats, and Totals
// folds every node, repeat and kernel into one entry per kind — the
// per-path values summed by hand, and what Sum reads off each snapshot.
func TestSum(t *testing.T) {
	r := NewRegistry()
	var a, b, other uint64 = 10, 32, 100
	r.Counter("h1", "nic", "tx_frames", &a)
	r.Counter("h2", "nic", "tx_frames", &b)
	r.Counter("h1", "nic", "tx_bytes", &other)
	if got := r.Snapshot().Sum("nic/tx_frames"); got != 42 {
		t.Fatalf("Sum = %d, want 42", got)
	}

	k1, k2 := sim.NewKernel(1), sim.NewKernel(2)
	tx := []uint64{1, 2, 4, 8, 32}
	For(k1).Counter("h1", "nic", "tx_frames", &tx[0])
	For(k1).Counter("h1", "nic", "tx_frames", &tx[1])
	For(k1).Gauge("h1", "ip", "forwarded", func() uint64 { return 16 })
	For(k1).Counter("h1", "nic", "tx_frames", &tx[2])
	For(k1).Counter("h2", "nic", "tx_frames", &tx[3])
	For(k2).Counter("g1", "nic", "tx_frames", &tx[4])
	fwd := uint64(64)
	For(k2).Counter("g1", "ip", "forwarded", &fwd)

	s1, s2 := For(k1).Snapshot(), For(k2).Snapshot()
	byHand := map[string]uint64{}
	for path, kind := range map[string]string{
		"h1/nic/tx_frames": "nic/tx_frames", "h1/nic/tx_frames~2": "nic/tx_frames",
		"h1/nic/tx_frames~3": "nic/tx_frames", "h2/nic/tx_frames": "nic/tx_frames",
		"h1/ip/forwarded": "ip/forwarded",
	} {
		v, ok := s1.Get(path)
		if !ok {
			t.Fatalf("kernel 1 snapshot lacks %s: %v", path, s1)
		}
		byHand[kind] += v
	}
	byHand["nic/tx_frames"] += tx[4]
	byHand["ip/forwarded"] += fwd
	want := Snapshot{{"ip/forwarded", 80}, {"nic/tx_frames", 47}}
	if byHand["ip/forwarded"] != 80 || byHand["nic/tx_frames"] != 47 {
		t.Fatalf("per-path values sum to %v, want %v", byHand, want)
	}
	got := Totals(k1, k2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Totals = %v, want %v", got, want)
	}
	for _, e := range got {
		if sum := s1.Sum(e.Path) + s2.Sum(e.Path); sum != e.Value {
			t.Errorf("Sum(%q) over the snapshots = %d, Totals says %d", e.Path, sum, e.Value)
		}
		if sum := got.Sum(e.Path); sum != e.Value {
			t.Errorf("Totals.Sum(%q) = %d, want %d", e.Path, sum, e.Value)
		}
	}
}

func TestTree(t *testing.T) {
	r := NewRegistry()
	var a, b uint64 = 1, 2
	r.Counter("gw", "nic", "rx_frames", &a)
	r.Counter("gw", "nic", "tx_frames", &b)
	r.Gauge("lan", "medium", "queued", func() uint64 { return 3 })
	tree := r.Snapshot().Tree()
	for _, want := range []string{"gw/", "  nic/", "rx_frames", "lan/", "  medium/", "queued"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	// The node header appears once even with several leaves under it.
	if strings.Count(tree, "gw/") != 1 {
		t.Fatalf("node header repeated:\n%s", tree)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	var v uint64
	r.Counter("a", "b", "c", &v) // must not panic
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil registry should be empty")
	}
}
