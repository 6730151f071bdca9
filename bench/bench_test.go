package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"

	"darpanet/bench/internal/drive"
)

// runSmall sets a workload up at self-test size and runs n iterations
// after the warm-up, returning the last one.
func runSmall(t *testing.T, name string, seed int64, workers, n int, prepare func(workload)) iterOut {
	t.Helper()
	w := newWorkload(name, seed, workers, smallSizes)
	if w == nil {
		t.Fatalf("unknown workload %s", name)
	}
	m := &meter{tracer: newTracer(name, false)}
	w.setup(m)
	if prepare != nil {
		prepare(w)
	}
	out := safeIterate(w, m, -1)
	for i := 0; i < n; i++ {
		out = safeIterate(w, m, i)
	}
	return out
}

// Each workload, run twice from scratch on one seed, must produce the
// same outcome, with no failed operation; another seed must produce a
// different one (the seed really reaches the generators).
func TestWorkloadsRepeatBySeed(t *testing.T) {
	for _, wd := range workloadDefs {
		a := runSmall(t, wd.Name, 1988, 2, 2, nil)
		b := runSmall(t, wd.Name, 1988, 2, 2, nil)
		c := runSmall(t, wd.Name, 7, 2, 2, nil)
		if a.fail != "" || c.fail != "" {
			t.Errorf("%s: failed operation: %q / %q", wd.Name, a.fail, c.fail)
		}
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: digest %q then %q on the same seed", wd.Name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1988 and 7 gave the same digest %s", wd.Name, a.digest)
		}
		if a.counts.Frames() == 0 {
			t.Errorf("%s: no link frames counted", wd.Name)
		}
	}
}

// The two workloads that use more than one goroutine must not let the
// worker count into their results. Run with -race this also checks
// that region goroutines and campaign workers share no state.
func TestParallelWorkloadsIgnoreWorkerCount(t *testing.T) {
	for _, name := range []string{"scale_sharded_2000gw", "campaign_mc"} {
		one := runSmall(t, name, 1988, 1, 2, nil)
		two := runSmall(t, name, 1988, 2, 2, nil)
		if one.fail != "" || two.fail != "" {
			t.Errorf("%s: failed operation: %q / %q", name, one.fail, two.fail)
		}
		if one.digest != two.digest {
			t.Errorf("%s: digest %s at 1 worker, %s at 2", name, one.digest, two.digest)
		}
	}
}

func TestInjectedFaultsFailTheOperation(t *testing.T) {
	// A byte that arrives different from the one sent.
	out := runSmall(t, "tcp_bulk_hetero", 1988, 1, 1, func(w workload) {
		b := w.(*tcpBulk)
		b.want = bytes.Clone(b.data)
		b.want[len(b.want)/2] ^= 0x40
	})
	if !strings.Contains(out.fail, "1 wrong") {
		t.Errorf("wrong byte: fail = %q", out.fail)
	}

	// Replies that never arrive: one per flow is a fifth of an
	// iteration's requests at self-test size.
	out = runSmall(t, "scale_sharded_2000gw", 1988, 2, 2, func(w workload) {
		w.(*scaleSharded).inject = func(s *drive.Sharded) { s.DropReplies(smallSizes.shardFlows) }
	})
	if !strings.Contains(out.fail, "replies to the") {
		t.Errorf("dropped replies: fail = %q", out.fail)
	}

	// A frame that is neither received nor accounted lost.
	books := drive.Counts{"nic/tx_frames": 10, "nic/rx_frames": 8, "nic/rx_lost": 1}
	if d := books.LedgerDelta(); d != 1 {
		t.Errorf("ledger delta = %d, want 1", d)
	}
	if got := checkSharded(100, 100, books.LedgerDelta(), true); !strings.Contains(got, "ledger off by 1") {
		t.Errorf("open ledger: fail = %q", got)
	}
	if got := checkSharded(99, 100, 0, true); got != "" {
		t.Errorf("99%% replies and a closed ledger failed: %q", got)
	}

	// A panic inside an iteration is that operation failing.
	m := &meter{tracer: newTracer("x", true)}
	endRoot := m.begin("root")
	out = safeIterate(panicky{}, m, 0)
	endRoot()
	if !strings.Contains(out.fail, "panic: boom") {
		t.Errorf("panic: fail = %q", out.fail)
	}
	if len(m.open) != 0 || m.spans[1].End == 0 {
		t.Errorf("panic left spans open: %v %+v", m.open, m.spans)
	}
}

type panicky struct{}

func (panicky) setup(*meter) {}
func (panicky) iterate(m *meter, i int) iterOut {
	m.begin("abandoned")
	panic("boom")
}

// A whole run at self-test size: the contract's last line carries every
// metric of the pass and nothing else.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := runConfig{workload: "collapse_mix", seed: 1988, seconds: 0.05, trace: trace, workers: 2, setups: 2, sz: smallSizes}
		if trace {
			cfg.probes = []drive.Probe{{Metric: "sim.schedule_fire_ns", Kind: drive.NsPerOp,
				Prepare: func() (func(), float64) { return func() {}, 1 }}}
		}
		res, spans, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("trace=%v: failures %v", trace, res.Failures)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil {
			t.Fatal(err)
		}
		defs := endToEndDefs
		if trace {
			defs = perLayerDefs
		}
		if !line.Correct || line.Attempted < 3 || len(line.Metrics) != len(defs) {
			t.Errorf("trace=%v: correct=%v attempted=%d, %d metrics for %d definitions", trace, line.Correct, line.Attempted, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or unit %q != %q", trace, d.Name, m.Unit, d.Unit)
			}
		}
		if !trace {
			for _, d := range defs {
				if line.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, line.Metrics[d.Name].Value)
				}
			}
			continue
		}
		// The traced pass accounts for itself: CPU shares sum to 1 (or
		// to 0 when the run was too short for a single sample), and span
		// self times sum to the root span.
		sum := 0.0
		for name, m := range line.Metrics {
			if strings.HasSuffix(name, "cpu_share") {
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 1e-9 && sum != 0 {
			t.Errorf("cpu shares sum to %v", sum)
		}
		var self int64
		for _, v := range selfTimes(spans) {
			self += v
		}
		if root := spans[0]; root.Parent != 0 || self != root.End-root.Start {
			t.Errorf("self times sum to %d, root span lasts %d", self, root.End-root.Start)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 { a 10..40 { a1 15..25 }, b 50..90 }
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 90},
	}
	want := map[int]int64{1: 30, 2: 20, 3: 10, 4: 40}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

// ---- a canned CPU profile, written with the encoder below ----

type pbWriter struct{ bytes.Buffer }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}
func (w *pbWriter) intField(field int, v uint64) { w.varint(uint64(field)<<3 | 0); w.varint(v) }
func (w *pbWriter) bytesField(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.Write(b)
}
func (w *pbWriter) packed(field int, vs ...uint64) {
	var p pbWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytesField(field, p.Bytes())
}

func cannedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count",
		"darpanet/internal/sim.(*Kernel).Step",           // 3
		"darpanet/internal/stack.(*RouteTable).Lookup",   // 4
		"runtime.mallocgc",                               // 5
		"darpanet/internal/exp.RunE4",                    // 6
		"sort.Slice",                                     // 7
		"darpanet/bench/internal/drive.(*Chain).Send",    // 8
		"darpanet/internal/sim.(*Kernel).RunUntil.func1", // 9
	}
	var p pbWriter
	// Functions 1..7 named by strings 3..9; locations 1..7, one line each,
	// except location 7 whose first (innermost, inlined) line is function
	// 2 and whose second is function 6.
	for id := uint64(1); id <= 7; id++ {
		var f pbWriter
		f.intField(1, id)
		f.intField(2, id+2)
		p.bytesField(5, f.Bytes())
	}
	for id := uint64(1); id <= 7; id++ {
		var l pbWriter
		l.intField(1, id)
		line := func(fn uint64) {
			var ln pbWriter
			ln.intField(1, fn)
			ln.intField(2, 42)
			l.bytesField(4, ln.Bytes())
		}
		if id == 7 {
			line(2)
			line(6)
		} else {
			line(id)
		}
		p.bytesField(4, l.Bytes())
	}
	sample := func(count uint64, locs ...uint64) {
		var s pbWriter
		s.packed(1, locs...)
		s.packed(2, count, count*10_000_000)
		p.bytesField(2, s.Bytes())
	}
	sample(5, 1, 6) // sim leaf under drive
	sample(3, 2, 1) // stack leaf
	sample(2, 3, 4) // runtime leaf under exp
	sample(4, 4)    // exp leaf → harness
	sample(1, 5, 1) // sort → other
	sample(2, 6)    // bench's own code → other
	sample(3, 7, 1) // inlined: innermost frame is stack's
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestCPUSharesByPackage(t *testing.T) {
	byFunc, err := leafSamples(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if byFunc["darpanet/internal/stack.(*RouteTable).Lookup"] != 6 {
		t.Errorf("leaf counts: %v", byFunc)
	}
	shares := cpuShares(byFunc)
	want := map[string]float64{"sim": 5.0 / 20, "stack": 6.0 / 20, "runtime": 2.0 / 20, "harness": 4.0 / 20, "other": 3.0 / 20}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", layer, share, want[layer])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := leafSamples([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
	for fn, pkg := range map[string]string{
		"darpanet/internal/sim.(*Kernel).RunUntil.func1": "darpanet/internal/sim",
		"runtime.mallocgc":               "runtime",
		"internal/runtime/atomic.Load":   "internal/runtime/atomic",
		"main.main":                      "main",
		"memeqbody":                      "runtime",
		"type:.eq.darpanet/internal/x.T": "type:.eq.darpanet/internal/x",
	} {
		if got := funcPackage(fn); got != pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, pkg)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4)
// returns, because that is what the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// >>> statistics.quantiles([3, 1, 2], n=4)  →  [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	vs := make([]float64, 40)
	for i := range vs {
		vs[i] = float64(i)
	}
	if pct, v, ok := highPercentile(vs); !ok || pct != 75 || v != 29 {
		t.Errorf("highPercentile = p%v %v %v; want p75 = 29 (ten samples beyond)", pct, v, ok)
	}
	if _, _, ok := highPercentile(vs[:19]); ok {
		t.Error("19 samples cannot support a percentile with ten beyond it")
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.99, v, v, v * 1.01}}
	}
	for _, c := range []struct {
		base, cand metricValue
		better     string
		want       string
	}{
		{steady(1.0), steady(1.05), "lower", "ok"},
		{steady(1.0), steady(1.2), "lower", "regressed"},
		{steady(1.0), steady(0.5), "lower", "ok"},
		{steady(100), steady(85), "higher", "regressed"},
		{steady(100), steady(120), "higher", "ok"},
		{steady(1.0), metricValue{Value: 1.0, Samples: []float64{0.8, 0.9, 1.1, 1.3}}, "lower", "unresolved"},
	} {
		if _, got := verdict(c.base, c.cand, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", c.base.Value, c.cand.Value, c.better, got, c.want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the dictionary in dict.go")

// BENCHMARK.json is the contract copy of the dictionary in dict.go;
// `go test -run TestContractMatchesDictionary -update` regenerates it.
func TestContractMatchesDictionary(t *testing.T) {
	want := contractDoc{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 15}
	for _, w := range workloadDefs {
		want.Workloads = append(want.Workloads, contractWorkload{w.Name, w.Why})
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEndDefs {
		want.EndToEnd = append(want.EndToEnd, contractBounded{d.Name, d.Unit, d.Better, d.Bound})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	seen := make(map[string]bool)
	for _, d := range perLayerDefs {
		want.PerLayer = append(want.PerLayer, contractMetric{d.Name, d.Unit, d.Better})
		if len(d.Name) > 64 || len(d.Unit) > 16 || seen[d.Name] {
			t.Errorf("per-layer %s: name or unit too long, or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(want.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(want.PerLayer))
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = append(wantJSON, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", wantJSON, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("../BENCHMARK.json differs from the dictionary in dict.go; run `go test -run TestContractMatchesDictionary -update`")
	}
}
