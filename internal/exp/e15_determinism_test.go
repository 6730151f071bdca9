package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"darpanet/internal/topo"
)

// e15TestSpec is the downscaled internet the E15 determinism suite
// runs: two directory replicas on a 4-transit ring, small enough for
// three seeds × two worker counts, large enough that directory
// replication and client queries cross the shard seam.
var e15TestSpec = topo.Spec{Shape: topo.TransitStub, Gateways: 4, StubsPer: 2, Hosts: 2, Directories: 2}

const e15TestRegions = 2

// TestE15DeterminismAcrossWorkers pins the naming experiment's
// acceptance check: the full metric export of an E15 run — both
// resolution modes, latency percentiles, convergence times and the
// summed counter registry — must be byte-identical at 1 and 2 workers
// across three seeds. The directory replicas span both regions, so
// zone replication and cross-region queries ride the boundary trunks
// the epoch barrier drains; worker count may change wall-clock time
// and nothing else.
//
// The single-worker run also records every directory server's protocol
// log (queries answered, registrations accepted, updates applied) and
// pins its tail against a committed golden — regenerate with
//
//	go test ./internal/exp/ -run TestE15Determinism -update
func TestE15DeterminismAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var wantJSON []byte
			var goldenTrace string
			for _, workers := range []int{1, 2} {
				var lines []string
				if workers == 1 {
					// The trace hook runs inside region kernels; only
					// the single-worker run can record it without
					// interleaving.
					e15TraceHook = func(line string) { lines = append(lines, line) }
				}
				res := runE15(seed, e15TestSpec, e15TestRegions, workers)
				e15TraceHook = nil
				j, err := json.Marshal(res.Metrics)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					wantJSON = j
					if len(lines) == 0 {
						t.Fatal("directory servers logged nothing")
					}
					if len(lines) > traceTail {
						lines = lines[len(lines)-traceTail:]
					}
					goldenTrace = strings.Join(lines, "\n") + "\n"
					continue
				}
				if !bytes.Equal(j, wantJSON) {
					t.Fatalf("workers=%d: metrics JSON diverged from workers=1", workers)
				}
			}

			path := filepath.Join("testdata", "golden", fmt.Sprintf("e15_seed%d.trace", seed))
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(goldenTrace), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (generate with -update): %v", err)
			}
			if goldenTrace != string(want) {
				t.Fatalf("query trace diverged from %s:\n%s", path, firstDiff(string(want), goldenTrace))
			}
		})
	}
}
