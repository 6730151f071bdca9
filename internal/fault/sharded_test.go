package fault_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/fault"
	"darpanet/internal/rip"
	"darpanet/internal/stack"
	"darpanet/internal/topo"
)

// ripEverywhere routes the built internet by RIP alone: the static
// routes a sharded build installs leave its gateways, and every gateway
// starts RIP in manifest order — the order, and so the kernel draws, of
// the serial build's one EnableRIP. Hosts keep their default routes.
func ripEverywhere(nw *core.Network, m *topo.Manifest) {
	cfg := rip.FastConfig()
	for _, g := range m.GatewayNames() {
		r := nw.Net(g)
		r.Node(g).Table.RemoveIf(func(rt stack.Route) bool { return rt.Source == stack.SourceStatic })
		r.EnableRIP(cfg, g)
	}
}

// injectorRun converges RIP on the internet nw belongs to, arms sched
// through nw and runs it out, returning the injector and the arm time.
func injectorRun(t *testing.T, nw *core.Network, m *topo.Manifest, sched fault.Schedule) (*fault.Injector, time.Duration) {
	t.Helper()
	ripEverywhere(nw, m)
	nw.RunFor(20 * time.Second)
	armAt := time.Duration(nw.Now())
	in := fault.New(nw, sched)
	arm(t, in)
	nw.RunFor(50 * time.Second)
	return in, armAt
}

// TestInjectorAtAnyRegionCount holds the injector on a sharded internet
// to the serial one, over a transit-stub internet routed by RIP on every
// gateway and a schedule that crashes a transit gateway and cuts a cross
// trunk, then restores and heals both:
//   - armed through the one region of a 1-region build, its Events and
//     Metrics are the serial build's, byte for byte;
//   - armed through each region of a 4-region build that does not hold
//     the crashed gateway, every step fires at arm time plus its offset
//     with the serial build's Partitioned flag, routers of at least two
//     regions reconverge, and the heal counts the frames both halves of
//     the trunk lost.
func TestInjectorAtAnyRegionCount(t *testing.T) {
	spec, err := topo.ParseSpec("transitstub:gw=6,stubs=1,hosts=1,mix=0")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build4 := func() *topo.Sharded { return topo.GenerateSharded(spec, seed, 4, 2) }
			s4 := build4()
			part := s4.Manifest.Partition
			var trunk string
			for i, nf := range s4.Manifest.NetDefs {
				if part.NetRegions[i] < 0 {
					trunk = nf.Name
					break
				}
			}
			// A transit gateway off the trunk, so both ends keep sending
			// into the cut: crashing it cuts its stub off.
			crashed := ""
			for _, nd := range s4.Manifest.NodeDefs[:spec.Gateways] {
				if !slices.Contains(nd.Nets, trunk) {
					crashed = nd.Name
					break
				}
			}
			sched := fault.MustParse("crash-and-cut", fmt.Sprintf(
				"5s crash %s\n5s cut %s\n25s restore %s\n25s heal %s\n", crashed, trunk, crashed, trunk))

			serialNW, m := topo.Generate(spec, seed)
			serial, _ := injectorRun(t, serialNW, m, sched)
			want := serial.Events()

			s1 := topo.GenerateSharded(spec, seed, 1, 1)
			one, _ := injectorRun(t, s1.Regions[0], s1.Manifest, sched)
			if got := one.Events(); !reflect.DeepEqual(got, want) {
				t.Errorf("1 region: events\n\t%+v\nserial\n\t%+v", got, want)
			}
			if got, wantM := one.Metrics(), serial.Metrics(); !reflect.DeepEqual(got, wantM) {
				t.Errorf("1 region: metrics\n\t%v\nserial\n\t%v", got, wantM)
			}

			armed := 0
			for r := range s4.Regions {
				if s4.Regions[r] == s4.Net(crashed) {
					continue
				}
				armed++
				s := build4()
				in, armAt := injectorRun(t, s.Regions[r], s.Manifest, sched)
				evs := in.Events()
				if len(evs) != len(sched.Steps) {
					t.Fatalf("armed through region %d: %d events, want %d", r, len(evs), len(sched.Steps))
				}
				for i, ev := range evs {
					if at := time.Duration(ev.At); at != armAt+sched.Steps[i].At {
						t.Errorf("armed through region %d: %s fired at %s, want %s", r, sched.Steps[i], at, armAt+sched.Steps[i].At)
					}
					if ev.Partitioned != want[i].Partitioned {
						t.Errorf("armed through region %d: %s Partitioned=%v, serial %v", r, sched.Steps[i], ev.Partitioned, want[i].Partitioned)
					}
				}

				regions := map[*core.Network]bool{}
				for _, mt := range in.Metrics() {
					node, ok := strings.CutPrefix(mt.Name, "reconverge_")
					if node, per := strings.CutSuffix(node, "_mean_s"); ok && per && mt.Value > 0 {
						regions[s.Net(node)] = true
					}
				}
				if len(regions) < 2 || len(in.ReconvergeDurations()) == 0 {
					t.Errorf("armed through region %d: routers of %d region(s) reconverged, want at least two", r, len(regions))
				}

				heal := evs[len(evs)-1]
				var lost []uint64
				for _, half := range s.Regions[r].Media(trunk) {
					lost = append(lost, half.LostWhileDown())
				}
				if heal.Op != fault.OpHeal || len(lost) != 2 || lost[0] == 0 || lost[1] == 0 || heal.LostInWindow != lost[0]+lost[1] {
					t.Errorf("armed through region %d: %s lost %d frames, halves %v: want both halves' losses", r, sched.Steps[len(evs)-1], heal.LostInWindow, lost)
				}
			}
			if armed == 0 {
				t.Fatal("no region to arm through outside the crashed gateway's")
			}
		})
	}
}
