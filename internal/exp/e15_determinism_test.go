package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"darpanet/internal/core"
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

// TestE15HoldsOneModeAtATime: runE15 reduces the name mode to its
// numbers before it builds the pin mode's internet, so by the time the
// pin mode's first region exists no name-mode region is reachable.
//
// A region reaches itself through its internet, and Go never finalizes
// an object that reaches itself, so the finalizer goes on a sentinel
// that only the region holds: captured by a packet tap on its first node.
// When the pin mode's first region is hooked, the collector runs until
// every name-mode sentinel is finalized or the tries run out.
func TestE15HoldsOneModeAtATime(t *testing.T) {
	var freed atomic.Int32
	hooked, collected := 0, false
	netHook = func(nw *core.Network) {
		hooked++
		switch {
		case hooked <= e15TestRegions: // the name mode
			sentinel := new([64]byte)
			runtime.SetFinalizer(sentinel, func(*[64]byte) { freed.Add(1) })
			nw.Node(nw.Nodes()[0]).SetPacketTap(func(bool, string, []byte) { _ = sentinel })
		case hooked == e15TestRegions+1: // the pin mode's first region
			for try := 0; try < 20 && freed.Load() < e15TestRegions; try++ {
				runtime.GC()
				runtime.Gosched()
			}
			collected = freed.Load() == e15TestRegions
		}
	}
	defer func() { netHook = nil }()
	runE15(1, e15TestSpec, e15TestRegions, 1)
	if hooked != 2*e15TestRegions {
		t.Fatalf("hooked %d regions, want %d a mode", hooked, e15TestRegions)
	}
	if !collected {
		t.Fatalf("%d of %d name-mode regions collected when the pin mode was built: the name mode is still alive", freed.Load(), e15TestRegions)
	}
}
