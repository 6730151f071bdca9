package exp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"darpanet/internal/topo"
)

// TestTrafficMatrixOnEveryBuild drives the scale experiments' shared
// traffic phase through the Internet handle over every way an internet
// is assembled — one serial network, one region, four regions — on a
// loss-free graph, and demands end-to-end completeness on each: every
// query answered, every transfer whole, the frame ledger closed over
// all of the handle's kernels.
func TestTrafficMatrixOnEveryBuild(t *testing.T) {
	spec, err := topo.ParseSpec("transitstub:gw=8,stubs=2,hosts=1,mix=0")
	if err != nil {
		t.Fatal(err)
	}
	sharded := func(regions int) func(int64) (Internet, *topo.Manifest) {
		return func(seed int64) (Internet, *topo.Manifest) {
			s := topo.GenerateSharded(spec, seed, regions, 1)
			return s, s.Manifest
		}
	}
	builds := []struct {
		name  string
		build func(seed int64) (Internet, *topo.Manifest)
	}{
		{"serial", func(seed int64) (Internet, *topo.Manifest) {
			nw, m := topo.Generate(spec, seed)
			nw.InstallStaticRoutes()
			return nw, m
		}},
		{"regions=1", sharded(1)},
		{"regions=4", sharded(4)},
	}
	for _, b := range builds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", b.name, seed), func(t *testing.T) {
				in, m := b.build(seed)
				tm := startTrafficMatrix(in, rand.New(rand.NewSource(seed)), m.HostNames(), 16)
				in.RunFor(15 * time.Second)
				var res Result
				tm.report(in, &res, "frame ledger Δ")

				if len(tm.queries) != 8 || len(tm.xfers) != 4 {
					t.Fatalf("matrix = %d queries + %d transfers, want 8 + 4 on 16 hosts", len(tm.queries), len(tm.xfers))
				}
				for _, want := range []struct {
					metric string
					value  float64
				}{
					{"udp_sent", 8 * 20}, {"udp_delivered", 1},
					{"tcp_done", 1}, {"tcp_bytes", 4 * matrixXferBytes},
					{"frame_ledger_delta", 0}, // over all of the handle's kernels
				} {
					if got, ok := res.Metric(want.metric); !ok || got != want.value {
						t.Errorf("%s = %v over %d kernel(s), want %v", want.metric, got, len(in.Kernels()), want.value)
					}
				}
				for i, tr := range tm.xfers {
					if tr.Err != nil || tr.Received != tr.Target {
						t.Errorf("transfer %d (%v): received %d of %d, err %v", i, tm.pairs[len(tm.queries)+i], tr.Received, tr.Target, tr.Err)
					}
				}
				if s, ok := in.(*topo.Sharded); ok && len(s.Regions) > 1 {
					cross := 0
					for _, p := range tm.pairs {
						if s.Region(p[0]) != s.Region(p[1]) {
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
