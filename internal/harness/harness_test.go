package harness

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/exp"
	"darpanet/internal/phys"
	"darpanet/internal/tcp"
	"darpanet/internal/workload"
)

// fakeExperiment derives metrics purely from the seed, like the real
// drivers but cheap: campaign plumbing can be tested at scale.
func fakeExperiment(seed int64) exp.Result {
	r := exp.Result{ID: "FAKE", Title: "fake"}
	r.AddMetric("seed", "", float64(seed))
	r.AddMetric("square", "", float64(seed*seed))
	r.AddMetric("parity", "", float64(seed%2))
	return r
}

// simExperiment runs a real (tiny) simulation per replica: two hosts, a
// gateway, one TCP transfer whose behaviour depends on the seed via the
// lossy radio link. This is what proves replicas on separate kernels do
// not race.
func simExperiment(seed int64) exp.Result {
	nw := core.New(seed)
	lossy := phys.Config{BitsPerSec: 5_000_000, Delay: time.Millisecond, Loss: 0.02, MTU: 1500, QueueLimit: 64}
	nw.AddNet("a", "10.1.0.0/24", core.LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	nw.AddNet("b", "10.2.0.0/24", core.Radio, lossy)
	nw.AddHost("src", "a")
	nw.AddGateway("gw", "a", "b")
	nw.AddHost("dst", "b")
	nw.InstallStaticRoutes()
	tr := workload.StartBulk(nw, "src", "dst", 80, 50_000, tcp.Options{})
	nw.RunFor(30 * time.Second)
	r := exp.Result{ID: "SIM", Title: "tiny transfer"}
	r.AddMetric("received", "B", float64(tr.BytesRx))
	r.AddMetric("done", "", float64(map[bool]int{true: 1}[tr.Done]))
	r.AddMetric("done_at", "s", tr.FCT().Seconds())
	return r
}

func exportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep.BaseSeed, rep.Runs, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicAcrossWorkers is the campaign-replay contract: same
// base seed and run count must produce byte-identical aggregated JSON
// regardless of worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 8, 16} {
		c := Campaign{Runs: 32, Parallel: workers, BaseSeed: 1988}
		got := exportJSON(t, c.RunFunc("FAKE", "fake", fakeExperiment))
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("JSON differs between 1 and %d workers:\n%s\n---\n%s", workers, want, got)
		}
	}
}

// TestDeterministicAcrossWorkersRealSim repeats the replay contract
// with real simulation kernels running concurrently — under -race this
// is the proof that replicas are isolated.
func TestDeterministicAcrossWorkersRealSim(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 8} {
		c := Campaign{Runs: 16, Parallel: workers, BaseSeed: 7}
		got := exportJSON(t, c.RunFunc("SIM", "tiny transfer", simExperiment))
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("real-sim JSON differs across worker counts:\n%s\n---\n%s", want, got)
		}
	}
}

func TestAggregation(t *testing.T) {
	c := Campaign{Runs: 5, Parallel: 3, BaseSeed: 10}
	rep := c.RunFunc("FAKE", "fake", fakeExperiment)
	if rep.Runs != 5 || rep.BaseSeed != 10 || len(rep.Failures) != 0 {
		t.Fatalf("report meta: %+v", rep)
	}
	if len(rep.Metrics) != 3 {
		t.Fatalf("metrics = %d", len(rep.Metrics))
	}
	// Seeds 10..14: mean 12, min 10, max 14, p50 12.
	m := rep.Metrics[0]
	if m.Name != "seed" || m.N != 5 || m.Mean != 12 || m.Min != 10 || m.Max != 14 || m.P50 != 12 {
		t.Fatalf("seed summary: %+v", m)
	}
	// Values stay in replica order.
	for i, v := range m.Values {
		if v != float64(10+i) {
			t.Fatalf("values out of replica order: %v", m.Values)
		}
	}
	// CI95 = t(4) * sample-stddev / sqrt(5); stddev of 10..14 is sqrt(2.5).
	wantCI := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(m.CI95-wantCI) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", m.CI95, wantCI)
	}
	if rep.First == nil || rep.First.ID != "FAKE" {
		t.Fatal("First replica result missing")
	}
}

func TestPanicRecovery(t *testing.T) {
	boom := func(seed int64) exp.Result {
		if seed == 102 {
			panic("scripted failure")
		}
		return fakeExperiment(seed)
	}
	var want []byte
	for _, workers := range []int{1, 8} {
		c := Campaign{Runs: 10, Parallel: workers, BaseSeed: 100}
		rep := c.RunFunc("FAKE", "fake", boom)
		if len(rep.Failures) != 1 || rep.Failures[0].Seed != 102 {
			t.Fatalf("failures = %+v", rep.Failures)
		}
		if !strings.Contains(rep.Failures[0].Error, "scripted failure") {
			t.Fatalf("error = %q", rep.Failures[0].Error)
		}
		// The surviving 9 replicas still aggregate.
		if rep.Metrics[0].N != 9 {
			t.Fatalf("n = %d, want 9", rep.Metrics[0].N)
		}
		got := exportJSON(t, rep)
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatal("failure reports differ across worker counts")
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var seen []int
	total := -1
	c := Campaign{
		Runs: 12, Parallel: 4, BaseSeed: 1,
		OnReplicaDone: func(done, tot int) { seen = append(seen, done); total = tot },
	}
	c.RunFunc("FAKE", "fake", fakeExperiment)
	if total != 12 || len(seen) != 12 {
		t.Fatalf("progress: total=%d calls=%d", total, len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress not monotone: %v", seen)
		}
	}
}

func TestDefaults(t *testing.T) {
	var c Campaign // zero Runs, zero Parallel
	rep := c.RunFunc("FAKE", "fake", fakeExperiment)
	if rep.Runs != 1 || rep.Metrics[0].N != 1 {
		t.Fatalf("zero-value campaign: %+v", rep)
	}
	// Spread statistics of a single replica are zero, not NaN.
	if rep.Metrics[0].CI95 != 0 || rep.Metrics[0].Stddev != 0 {
		t.Fatalf("degenerate spread: %+v", rep.Metrics[0])
	}
	// Parallel larger than Runs is capped, not deadlocked.
	c2 := Campaign{Runs: 2, Parallel: 64, BaseSeed: 5}
	if rep := c2.RunFunc("FAKE", "fake", fakeExperiment); rep.Metrics[0].N != 2 {
		t.Fatal("over-parallel campaign lost replicas")
	}
}

func TestReportTable(t *testing.T) {
	c := Campaign{Runs: 4, Parallel: 2, BaseSeed: 0}
	rep := c.RunFunc("FAKE", "fake", fakeExperiment)
	tbl := rep.Table()
	out := tbl.String()
	for _, want := range []string{"metric", "±95% CI", "seed", "square", "parity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestRunRegisteredExperiment closes the loop with the real registry: a
// small campaign over E5 must aggregate every driver metric with one
// sample per replica, concurrently, and count the replicas that held
// its claim.
func TestRunRegisteredExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment campaign")
	}
	e, ok := exp.ByID("E5")
	if !ok {
		t.Fatal("E5 missing")
	}
	c := Campaign{Runs: 8, Parallel: 8, BaseSeed: 1988}
	rep := c.RunExperiment(e)
	if len(rep.Failures) != 0 {
		t.Fatalf("failures: %+v", rep.Failures)
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("no metrics")
	}
	for _, m := range rep.Metrics {
		if m.N != 8 {
			t.Fatalf("%s: n=%d, want 8", m.Name, m.N)
		}
		if math.IsNaN(m.Mean) || math.IsInf(m.Mean, 0) {
			t.Fatalf("%s: mean=%v", m.Name, m.Mean)
		}
	}
	if fmt.Sprint(rep.ID) != "E5" || rep.Held != 8 {
		t.Fatalf("id = %s, claim held in %d/8", rep.ID, rep.Held)
	}
}
