package darpanet_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"darpanet/internal/exp"
	"darpanet/internal/harness"
)

// BenchmarkCampaignParallel measures the Monte Carlo harness on an
// E5-sized campaign (8 replicas of the cost-of-generality experiment),
// with a single worker and with one worker per CPU. The replica work is
// identical either way — the ratio is the harness's parallel speedup.
// (What one experiment costs to simulate is bench/'s campaign_mc
// workload, `exp.E<n>.wall_s`.)
func BenchmarkCampaignParallel(b *testing.B) {
	e, ok := exp.ByID("E5")
	if !ok {
		b.Fatal("E5 missing")
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := harness.Campaign{Runs: 8, Parallel: workers, BaseSeed: 1988}
				rep := c.RunExperiment(e)
				if len(rep.Metrics) == 0 || len(rep.Failures) != 0 {
					b.Fatalf("campaign broke: %+v", rep.Failures)
				}
			}
		})
	}
}

var updatePinned = flag.Bool("update", false, "rewrite testdata/results_seed1988.sha256")

// pinnedSeed is the seed every recorded table in EXPERIMENTS.md uses.
const pinnedSeed = 1988

// TestAllExperimentsProduceStableResults runs every experiment once at
// the recorded seed with default parameters and compares a sha256 over
// what the reader of EXPERIMENTS.md sees — the rendered table and the
// printed metrics — against the committed digest. Notes stay out: E16's
// carry wall-clock. A mismatch means a number moved (or the run is no
// longer deterministic); if the change is intentional, regenerate with
//
//	go test -run TestAllExperimentsProduceStableResults -update
func TestAllExperimentsProduceStableResults(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	if runtime.GOARCH != "amd64" {
		// The tables print floats, and off amd64 the compiler may fuse
		// a multiply-add the recording rounded twice.
		t.Skipf("digests were recorded on amd64; %s may round differently", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "results_seed1988.sha256")
	want := map[string]string{}
	if !*updatePinned {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing digests (generate with -update): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			sum, id, _ := strings.Cut(line, "  ")
			want[id] = sum
		}
	}
	var recorded strings.Builder
	for _, e := range exp.All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := runPinned(e)
			if len(r.Table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if len(r.Metrics) == 0 {
				t.Fatalf("%s emitted no metrics", e.ID)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(r.Table.String()+fmt.Sprint(r.Metrics))))
			fmt.Fprintf(&recorded, "%s  %s\n", got, e.ID)
			if !*updatePinned && got != want[e.ID] {
				t.Fatalf("%s no longer produces the recorded result: digest %s, want %q\n%s",
					e.ID, got, want[e.ID], r.Table.String())
			}
		})
	}
	if *updatePinned {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(recorded.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
