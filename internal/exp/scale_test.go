package exp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/metrics"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// everyBuild is every way an internet is assembled from spec: one serial
// network, one region, four regions. All three are routed by the
// N-region oracle entry — the serial network handed to it alone — so
// stub tiers collapse to default routes alike and the builds can be
// held against each other, not merely each to completeness.
func everyBuild(spec topo.Spec) []internetBuild {
	sharded := func(regions int) func(int64) (*core.Network, *topo.Manifest) {
		return func(seed int64) (*core.Network, *topo.Manifest) {
			s := topo.GenerateSharded(spec, seed, regions, 1)
			return s.Regions[0], s.Manifest
		}
	}
	return []internetBuild{
		{"serial", func(seed int64) (*core.Network, *topo.Manifest) {
			nw, m := topo.Generate(spec, seed)
			core.InstallStaticRoutesAcross([]*core.Network{nw})
			return nw, m
		}},
		{"regions=1", sharded(1)},
		{"regions=4", sharded(4)},
	}
}

type internetBuild struct {
	name  string
	build func(seed int64) (*core.Network, *topo.Manifest)
}

func mustSpec(t *testing.T, s string) topo.Spec {
	spec, err := topo.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTrafficMatrixOnEveryBuild drives the scale experiments' shared
// traffic phase through one network of the internet over every way it
// is assembled — one serial network, one region, four regions — on a
// loss-free graph, and demands end-to-end completeness on each: every
// query answered, every transfer whole, the frame ledger closed over
// all of its kernels.
func TestTrafficMatrixOnEveryBuild(t *testing.T) {
	builds := everyBuild(mustSpec(t, "transitstub:gw=8,stubs=2,hosts=1,mix=0"))
	for _, b := range builds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", b.name, seed), func(t *testing.T) {
				nw, m := b.build(seed)
				tm := startTrafficMatrix(nw, rand.New(rand.NewSource(seed)), m.HostNames(), 16)
				nw.RunFor(15 * time.Second)
				var res Result
				tm.report(nw, &res, "frame ledger Δ")

				if len(tm.queries) != 8 || len(tm.xfers) != 4 {
					t.Fatalf("matrix = %d queries + %d transfers, want 8 + 4 on 16 hosts", len(tm.queries), len(tm.xfers))
				}
				c := claims{r: res}
				c.at("udp_sent", "==", 8*20)
				c.at("udp_delivered", "==", 1)
				c.at("tcp_done", "==", 1)
				c.at("tcp_bytes", "==", 4*matrixXferBytes)
				c.at("frame_ledger_delta", "==", 0) // over all of the internet's kernels
				if c.err != nil {
					t.Errorf("over %d kernel(s): %v", len(nw.Kernels()), c.err)
				}
				for i, tr := range tm.xfers {
					if tr.Err != nil || tr.BytesRx != tr.Size || tr.Mismatched != 0 {
						t.Errorf("transfer %d (%s→%s): received %d of %d (%d mismatched), err %v", i, tr.Src, tr.Dst, tr.BytesRx, tr.Size, tr.Mismatched, tr.Err)
					}
				}
				if len(nw.Kernels()) > 1 {
					cross := 0
					for _, f := range slices.Concat(tm.queries, tm.xfers) {
						if nw.Net(f.Src) != nw.Net(f.Dst) {
							cross++
						}
					}
					if cross == 0 {
						t.Error("no flow crossed a region boundary: the sharded path went unexercised")
					}
				}
			})
		}
	}
}

// buildRun is everything one run leaves behind that a second build of
// the same (spec, seed) can be held to.
type buildRun struct {
	nodes    []string
	tables   map[string]string   // node -> Table.String()
	streams  map[string][]string // node -> one line per datagram its tap saw
	counters map[string]uint64   // descriptor path -> value, summed over kernels
}

// runTapped builds an internet, taps every node, starts traffic and runs
// 15 s of it.
func runTapped(b internetBuild, seed int64, traffic func(nw *core.Network, rng *rand.Rand, hosts []string)) buildRun {
	nw, m := b.build(seed)
	r := buildRun{tables: map[string]string{}, streams: map[string][]string{}, counters: map[string]uint64{}}
	for _, nd := range m.NodeDefs {
		name, k := nd.Name, nw.Net(nd.Name).Kernel()
		r.nodes = append(r.nodes, name)
		nw.Net(name).Node(name).SetPacketTap(func(send bool, iface string, raw []byte) {
			r.streams[name] = append(r.streams[name], fmt.Sprintf("%d send=%v %s %x", k.Now(), send, iface, raw))
		})
	}
	traffic(nw, rand.New(rand.NewSource(seed)), m.HostNames())
	nw.RunFor(15 * time.Second)
	for _, name := range r.nodes {
		r.tables[name] = nw.Net(name).Node(name).Table.String()
	}
	// A cross trunk registers its medium descriptors once in each end's
	// region; summed by path they are the serial trunk's.
	for _, k := range nw.Kernels() {
		for _, e := range metrics.For(k).Snapshot() {
			r.counters[e.Path] += e.Value
		}
	}
	return r
}

// TestSerialAndShardedRunsAgree is the differential test the one wiring
// path makes possible: traffic over a serial, a 1-region and a 4-region
// build of one (spec, seed) — the same internet address for address
// (topo.TestBuildersShareGraphNamesPrefixesMedia) — held against each
// other node by node.
//
// One region is the serial build outright: region 0's kernel has the
// serial kernel's seed, so under the traffic matrix, on a graph with its
// lossy, jittery media mix, every registry descriptor and every node's
// packet stream — time, direction, interface, raw bytes — is equal.
//
// Four regions, on loss-free graphs, install the same routing table on
// every node and end the traffic matrix with every descriptor equal
// except the per-kernel kernel/pool/ family (a boundary crossing
// re-pools the frame in the receiving kernel: one get and one put the
// serial run never makes). Packet streams under the matrix are NOT
// claimed equal there, for two reasons. Each region keeps its own RNG
// stream, and TCP draws initial sequence numbers from it, so every
// segment's seq, ack and checksum differ. And the matrix starts its
// flows in the same instant: where two frames reach a queue in one
// instant, the serial kernel orders them by when each was scheduled,
// while a frame that crossed a boundary is scheduled at the barrier —
// the tie can break the other way, and from there on the time field
// differs by one frame's serialization (1.4715 ms for a query on a T1
// trunk; with sixteen UDP-only flows started together, on 16 of the
// transit-stub graph's 40 nodes at seed 1). The last case shows that is
// all: UDP queries alone, each flow started 8.237 ms after the one
// before so that no two frames tie, give every node the serial packet
// stream at four regions too.
func TestSerialAndShardedRunsAgree(t *testing.T) {
	matrix := func(nw *core.Network, rng *rand.Rand, hosts []string) { startTrafficMatrix(nw, rng, hosts, 16) }
	staggeredQueries := func(nw *core.Network, rng *rand.Rand, hosts []string) {
		for f := 0; f < 16; f++ {
			from := rng.Intn(len(hosts))
			to := (from + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			workload.StartQueries(nw, hosts[from], hosts[to], uint16(7000+f), 20, 250*time.Millisecond, 256, 0)
			nw.RunFor(8237 * time.Microsecond)
		}
	}
	const oneRegion, fourRegions = 1, 2 // indices into everyBuild
	cases := []struct {
		name, spec string
		build      int
		traffic    func(*core.Network, *rand.Rand, []string)
		streams    bool // every node's packet stream must be equal too
	}{
		{"matrix", "transitstub:gw=8,stubs=2,hosts=1", oneRegion, matrix, true},
		{"matrix", "transitstub:gw=8,stubs=2,hosts=1,mix=0", fourRegions, matrix, false},
		{"matrix", "waxman:gw=16,hosts=1,mix=0", fourRegions, matrix, false},
		{"staggered-udp", "transitstub:gw=8,stubs=2,hosts=1,mix=0", fourRegions, staggeredQueries, true},
		{"staggered-udp", "waxman:gw=16,hosts=1,mix=0", fourRegions, staggeredQueries, true},
	}
	for _, tc := range cases {
		builds := everyBuild(mustSpec(t, tc.spec))
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%s/%s/seed%d", tc.name, tc.spec, builds[tc.build].name, seed), func(t *testing.T) {
				want, got := runTapped(builds[0], seed, tc.traffic), runTapped(builds[tc.build], seed, tc.traffic)
				for _, name := range want.nodes {
					if got.tables[name] != want.tables[name] {
						t.Errorf("%s: routing table\n%sserial:\n%s", name, got.tables[name], want.tables[name])
					}
					w, g := strings.Join(want.streams[name], "\n"), strings.Join(got.streams[name], "\n")
					if tc.streams && w != g {
						t.Errorf("%s: packet stream diverged from serial: %s", name, firstDiff(w, g))
					}
				}
				for path, w := range want.counters {
					if tc.build == fourRegions && strings.HasPrefix(path, "kernel/pool/") {
						continue
					}
					if g, ok := got.counters[path]; !ok || g != w {
						t.Errorf("%s = %d (registered: %v), serial %d", path, g, ok, w)
					}
				}
				if len(got.counters) != len(want.counters) {
					t.Errorf("%d descriptors, serial %d", len(got.counters), len(want.counters))
				}
			})
		}
	}
}
