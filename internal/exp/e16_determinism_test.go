package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"darpanet/internal/topo"
)

// e16TestSpecs are the downscaled internets the determinism suite runs:
// the two shapes the reference experiment and the tournament use, small
// enough that three seeds × three worker counts stay affordable.
var e16TestSpecs = []struct {
	name string
	spec topo.Spec
}{
	{"transitstub", topo.Spec{Shape: topo.TransitStub, Gateways: 8, StubsPer: 2, Hosts: 1}},
	{"waxman", topo.Spec{Shape: topo.Waxman, Gateways: 16, Alpha: 0.25, Beta: 0.4, Hosts: 1}},
}

const e16TestRegions = 4

// TestE16DeterminismAcrossWorkers is the sharded kernel's acceptance
// check: the full metric export (headline metrics plus the summed
// counter registry) and the packet-level trace of an E16 run must be
// byte-identical at 1, 2 and 4 workers, on both topology shapes,
// across three seeds. The worker count is allowed to change wall-clock
// time and nothing else — the epoch schedule and the barrier exchange
// order are fixed by (spec, seed, regions).
//
// The single-worker trace is also pinned against a committed golden
// (regenerate with -update), so a run that is self-consistent across
// worker counts but silently different from yesterday still fails.
func TestE16DeterminismAcrossWorkers(t *testing.T) {
	for _, sc := range e16TestSpecs {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s_seed%d", sc.name, seed), func(t *testing.T) {
				var wantJSON []byte
				var wantTrace string
				for _, workers := range []int{1, 2, 4} {
					var res Result
					// g0 is a gateway in exactly one region network;
					// tapping it makes the trace sensitive to every frame
					// that transits it, including boundary-trunk frames.
					gotTrace := captureTrace(func(s int64) Result {
						res = runE16(s, Params{Topo: &sc.spec, Regions: e16TestRegions, Shards: workers})
						return res
					}, "g0", seed)
					if gotTrace == "" {
						t.Fatalf("workers=%d: empty trace", workers)
					}
					j, err := json.Marshal(res.Metrics)
					if err != nil {
						t.Fatal(err)
					}
					if workers == 1 {
						wantJSON, wantTrace = j, gotTrace
						continue
					}
					if !bytes.Equal(j, wantJSON) {
						t.Fatalf("workers=%d: metrics JSON diverged from workers=1", workers)
					}
					if gotTrace != wantTrace {
						t.Fatalf("workers=%d: trace diverged from workers=1:\n%s",
							workers, firstDiff(wantTrace, gotTrace))
					}
				}

				path := filepath.Join("testdata", "golden",
					fmt.Sprintf("e16_%s_seed%d.trace", sc.name, seed))
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(wantTrace), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (generate with -update): %v", err)
				}
				if wantTrace != string(want) {
					t.Fatalf("trace diverged from %s:\n%s", path, firstDiff(string(want), wantTrace))
				}
			})
		}
	}
}

// e16TablesSHA256 is the sha256 over every node's name and routing
// table dump on the reference E16 internet at seed 1988 (regions in
// order, nodes in build order). It pins the tables the static oracle
// installs over the generator's own wiring order — the interfaces,
// addresses and equal-cost choices a serial build of the same (spec,
// seed) has — cut into eight regions: a change to the attachment order,
// the address plan, the partition, the oracle's tie-breaks or its
// aggregation (collapsed defaults, same-next-hop blocks) moves it.
const e16TablesSHA256 = "6a9fd69bff332bf62d5367a9ed6983ea750c63bb3d79c3323c7e69afe03029cc"

// e16Routes is how many routes those tables hold, direct routes
// included: a collapsed node's default, and at most 103 routes on a
// transit gateway, up to 94 of them blocks. A route per net would be
// 958 750.
const e16Routes = 31_420

// TestE16RouteTablesPinned builds the smoke-E16 internet and compares
// all 3 750 routing tables (31 420 routes) against the recorded hash.
func TestE16RouteTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 2000-gateway internet")
	}
	rec := row("E16").scenario
	s := topo.GenerateSharded(*rec.Topo, 1988, rec.Regions, 1)
	h := sha256.New()
	routes := 0
	for _, nw := range s.Regions {
		for _, name := range nw.Nodes() {
			tbl := &nw.Node(name).Table
			routes += tbl.Len()
			fmt.Fprintf(h, "%s\n%s", name, tbl.String())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != e16TablesSHA256 || routes != e16Routes {
		t.Fatalf("route tables changed: sha256 %s over %d routes, recorded %s over %d", got, routes, e16TablesSHA256, e16Routes)
	}
}
