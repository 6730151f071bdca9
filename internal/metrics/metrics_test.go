package metrics

import (
	"bytes"
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
// keeps it: one 32-byte binding (the path's string header, a counter
// pointer, a gauge closure) plus its path's bytes, with at most the
// binding slice's growth slack on top — no map of the paths seen, which
// cost about as much again (repeats are told apart at Snapshot). The
// bytes are counted from the capacities the registry holds, as
// TestRouteTableFootprint counts a route table's, and the struct may
// hold nothing but the binding slice, so no per-descriptor state escapes
// the count. A snapshot with no repeated path allocates only itself.
func TestRegistryFootprint(t *testing.T) {
	if size := unsafe.Sizeof(binding{}); size != 32 {
		t.Fatalf("binding is %d bytes, want 32", size)
	}
	if unsafe.Sizeof(Registry{}) != unsafe.Sizeof([]binding(nil)) {
		t.Fatalf("Registry is %d bytes: it holds more than its bindings", unsafe.Sizeof(Registry{}))
	}
	const n = 10_000
	r := NewRegistry()
	counters := make([]uint64, n)
	for i := range counters {
		r.Counter(fmt.Sprintf("g%d", i), "nic", "tx_frames", &counters[i])
	}
	held := cap(r.bindings) * int(unsafe.Sizeof(binding{}))
	for _, b := range r.bindings {
		held += len(b.path) // 15 to 19 bytes here
	}
	if per := float64(held) / n; per > 64 {
		t.Fatalf("%d descriptors hold %.1f B each, want <= 64", n, per)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Snapshot() }); allocs != 1 {
		t.Fatalf("a snapshot of %d distinct paths made %.0f allocations, want 1", n, allocs)
	}
}

func TestSum(t *testing.T) {
	r := NewRegistry()
	var a, b, other uint64 = 10, 32, 100
	r.Counter("h1", "nic", "tx_frames", &a)
	r.Counter("h2", "nic", "tx_frames", &b)
	r.Counter("h1", "nic", "tx_bytes", &other)
	if got := r.Snapshot().Sum("nic/tx_frames"); got != 42 {
		t.Fatalf("Sum = %d, want 42", got)
	}
}

func TestSubDelta(t *testing.T) {
	r := NewRegistry()
	var tx uint64
	g := uint64(9)
	r.Counter("h1", "nic", "tx_frames", &tx)
	r.Gauge("h1", "nic", "queued", func() uint64 { return g })
	tx, g = 10, 9
	before := r.Snapshot()
	tx, g = 25, 4 // gauge shrank: delta clamps at zero
	d := r.Snapshot().Sub(before)
	if v, _ := d.Get("h1/nic/tx_frames"); v != 15 {
		t.Fatalf("counter delta = %d, want 15", v)
	}
	if v, _ := d.Get("h1/nic/queued"); v != 0 {
		t.Fatalf("shrunk gauge delta = %d, want 0", v)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		var tx, rx uint64 = 3, 5
		r.Counter("b", "nic", "tx_frames", &tx)
		r.Counter("a", "nic", "rx_frames", &rx)
		return r.Snapshot()
	}
	var w1, w2 bytes.Buffer
	if err := build().WriteJSON(&w1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&w2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("two exports of the same state differ")
	}
	if !strings.Contains(w1.String(), `"schema": "darpanet/metrics/v1"`) {
		t.Fatalf("missing schema: %s", w1.String())
	}
	var empty Snapshot
	var w3 bytes.Buffer
	if err := empty.WriteJSON(&w3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w3.String(), `"counters": []`) {
		t.Fatalf("empty snapshot should export an empty array: %s", w3.String())
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
