package survive

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"darpanet/internal/fault"
	"darpanet/internal/topo"
)

// refComps counts service components from NodeDefs by name alone, the
// reference the analysis is held to: up gateways and up nets carrying
// hosts, joined where an up gateway attaches to an up net. down names
// the crashed gateways and cut nets (the generator's node and net names
// never collide).
func refComps(m *topo.Manifest, down map[string]bool) int {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if p, ok := parent[x]; ok && p != x {
			parent[x] = find(p)
			return parent[x]
		}
		return x
	}
	service := map[string]bool{}
	for _, nd := range m.NodeDefs {
		if nd.Forwarding && !down[nd.Name] {
			service[nd.Name] = true
		}
		for _, n := range nd.Nets {
			switch {
			case down[n]: // a cut net joins nothing and serves no one
			case !nd.Forwarding:
				service[n] = true
			case !down[nd.Name]:
				if a, b := find(nd.Name), find(n); a != b {
					parent[a] = b
				}
			}
		}
	}
	roots := map[string]bool{}
	for v := range service {
		roots[find(v)] = true
	}
	return len(roots)
}

// bruteSplits reports whether taking the named elements down increases
// the reference's service-component count over the intact graph — the
// exhaustive check Analyze's Tarjan-pruned search is verified against.
func bruteSplits(m *topo.Manifest, down ...string) bool {
	set := map[string]bool{}
	for _, d := range down {
		set[d] = true
	}
	return refComps(m, set) > refComps(m, nil)
}

// checkWeakPoints holds Analyze to the name-keyed reference on m: every
// net is a trunk exactly when two or more gateway attachments name it,
// the analysis counts the same service components as the reference with
// any one gateway or net down, every reported cut gateway and bridge
// trunk splits service and every unreported one does not, no stub's
// loss splits anything, and the 2-cut catalogue matches exhaustive pair
// removal. m must have at most maxPairCandidates trunks, so the
// candidate cap never bites.
func checkWeakPoints(t *testing.T, m *topo.Manifest) {
	t.Helper()
	an := Analyze(m)
	reported := map[string]bool{}
	for _, g := range an.CutGateways {
		reported[m.NodeDefs[g].Name] = true
	}
	for _, n := range an.CutNets {
		reported[m.NetDefs[n].Name] = true
	}
	inPairs := map[[2]string]bool{}
	for _, p := range an.CutPairs {
		inPairs[[2]string{m.NetDefs[p[0]].Name, m.NetDefs[p[1]].Name}] = true
	}

	gwsOn := map[string]int{}
	for _, nd := range m.NodeDefs {
		for _, n := range nd.Nets {
			if nd.Forwarding {
				gwsOn[n]++
			}
		}
	}
	var trunks []string // NetDefs order
	for n, nf := range m.NetDefs {
		trunk := gwsOn[nf.Name] >= 2
		if an.trunk(n) != trunk {
			t.Errorf("%s: net %s: trunk=%v, %d gateway attachments", m.Spec, nf.Name, an.trunk(n), gwsOn[nf.Name])
		}
		if trunk {
			trunks = append(trunks, nf.Name)
		}
	}
	if len(trunks) != m.Trunks {
		t.Errorf("%s: %d nets have two gateways, the manifest counts %d trunks", m.Spec, len(trunks), m.Trunks)
	}
	if len(trunks) > maxPairCandidates {
		t.Fatalf("%s: %d trunks exceeds the pair-candidate cap; shrink the spec", m.Spec, len(trunks))
	}

	gwDown := make([]bool, len(m.NodeDefs))
	netDown := make([]bool, len(m.NetDefs))
	base := refComps(m, nil)
	// one checks the analysis with name down (its mask already set).
	one := func(name string, cut bool) {
		want := refComps(m, map[string]bool{name: true})
		if got, _ := an.census(gwDown, netDown); got != want {
			t.Errorf("%s: %s down: census counts %d components, reference %d", m.Spec, name, got, want)
		}
		if splits := want > base; cut && splits != reported[name] {
			t.Errorf("%s: %s: brute-force split=%v, reported=%v", m.Spec, name, splits, reported[name])
		} else if !cut && splits {
			t.Errorf("%s: stub %s splits service on removal — model broken", m.Spec, name)
		}
	}
	for g, nd := range m.NodeDefs {
		if nd.Forwarding {
			gwDown[g] = true
			one(nd.Name, true)
			gwDown[g] = false
		}
	}
	for n, nf := range m.NetDefs {
		netDown[n] = true
		one(nf.Name, gwsOn[nf.Name] >= 2)
		netDown[n] = false
	}

	for i, a := range trunks {
		for _, b := range trunks[i+1:] {
			if reported[a] || reported[b] {
				continue
			}
			pair := [2]string{a, b}
			if splits := bruteSplits(m, a, b); splits != inPairs[pair] {
				t.Errorf("%s: pair (%s,%s): brute-force split=%v, reported=%v", m.Spec, a, b, splits, inPairs[pair])
			}
		}
	}
}

// weakPointSpecs are random transit-stub and Waxman internets small
// enough for the exhaustive pair check.
var weakPointSpecs = []string{
	"transitstub:gw=3,stubs=2,hosts=1,mix=0",
	"transitstub:gw=4,stubs=3,hosts=2,mix=1",
	"waxman:gw=10,hosts=1",
	"waxman:gw=16,hosts=2,mix=1",
}

// TestWeakPointsMatchBruteForce holds the analysis of each weak-point
// spec × 3 seeds to the brute-force reference.
func TestWeakPointsMatchBruteForce(t *testing.T) {
	for _, sp := range weakPointSpecs {
		spec, err := topo.ParseSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			checkWeakPoints(t, topo.ManifestOnly(spec, seed))
		}
	}
}

// FuzzWeakPointsMatchBruteForce is the differential fuzzer: any topo
// spec that parses into at most about 60 nodes and at most
// maxPairCandidates trunks gets the analysis checkWeakPoints holds to
// the reference.
func FuzzWeakPointsMatchBruteForce(f *testing.F) {
	for _, sp := range weakPointSpecs {
		f.Add(sp, int64(1))
	}
	f.Fuzz(func(t *testing.T, in string, seed int64) {
		spec, err := topo.ParseSpec(in)
		if err != nil || spec.Gateways > 60 || spec.StubsPer > 60 {
			return
		}
		gateways := spec.Gateways
		if spec.Shape == topo.TransitStub {
			gateways *= 1 + spec.StubsPer
		}
		if gateways+spec.HostCount() > 60 {
			return
		}
		m := topo.ManifestOnly(spec, seed)
		if m.Trunks > maxPairCandidates {
			return
		}
		checkWeakPoints(t, m)
	})
}

// TestWeakPointsSplitLiveNetwork closes the model/reality gap: cutting
// a reported bridge (or crashing a reported articulation gateway) on
// the live generated network must partition it per the core
// reachability census, and a redundant trunk must not.
func TestWeakPointsSplitLiveNetwork(t *testing.T) {
	spec, err := topo.ParseSpec("transitstub:gw=3,stubs=2,hosts=1,mix=0")
	if err != nil {
		t.Fatal(err)
	}
	nw, m := topo.Generate(spec, 2)
	an := Analyze(m)
	if len(an.CutNets) == 0 || len(an.CutGateways) == 0 {
		t.Fatalf("transit-stub internet reported no weak points: %+v", an)
	}
	if c := nw.PartitionCensus(); c.Components != 1 {
		t.Fatalf("intact internet has %d components", c.Components)
	}
	cut := map[int]bool{}
	for _, n := range an.CutNets {
		cut[n] = true
		name := m.NetDefs[n].Name
		nw.SetNetDown(name, true)
		if c := nw.PartitionCensus(); c.Components < 2 {
			t.Errorf("cutting bridge %s left %d component(s)", name, c.Components)
		}
		nw.SetNetDown(name, false)
	}
	for _, g := range an.CutGateways {
		name := m.NodeDefs[g].Name
		nw.CrashNode(name)
		if c := nw.PartitionCensus(); c.Components < 2 {
			t.Errorf("crashing articulation gateway %s left %d component(s)", name, c.Components)
		}
		nw.RestoreNode(name)
	}
	// A ring trunk is redundant: its loss must not partition.
	for n, nf := range m.NetDefs {
		if an.trunk(n) && !cut[n] {
			nw.SetNetDown(nf.Name, true)
			if c := nw.PartitionCensus(); c.Components != 1 {
				t.Errorf("cutting redundant trunk %s partitioned the internet", nf.Name)
			}
			nw.SetNetDown(nf.Name, false)
		}
	}
}

// TestTargetedScheduleShape checks the campaign generator: budgets are
// honored, every step fires at the same instant (one compound event),
// the same analysis yields the same attack twice, and the targeted
// attack on a transit-stub internet actually partitions its model
// graph.
func TestTargetedScheduleShape(t *testing.T) {
	spec, err := topo.ParseSpec("transitstub:gw=4,stubs=4,hosts=1,mix=0")
	if err != nil {
		t.Fatal(err)
	}
	m := topo.ManifestOnly(spec, 7)
	an := Analyze(m)
	b := an.BudgetFor(0.10)
	if b.Cuts < 1 || b.Crashes < 1 {
		t.Fatalf("10%% of %d trunks / %d gateways gave empty budget %+v", m.Trunks, m.Gateways, b)
	}

	at := 5 * time.Second
	s1 := an.Targeted(b, at)
	s2 := an.Targeted(b, at)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("targeted schedule not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	cuts, crashes := 0, 0
	gwDown := make([]bool, len(m.NodeDefs))
	netDown := make([]bool, len(m.NetDefs))
	for _, st := range s1.Steps {
		if st.At != at {
			t.Errorf("step at %s, want all at %s", st.At, at)
		}
		switch st.Op {
		case fault.OpCut:
			cuts++
			netDown[slices.IndexFunc(m.NetDefs, func(d topo.NetDef) bool { return d.Name == st.Target })] = true
		case fault.OpCrash:
			crashes++
			gwDown[m.NodeIndex(st.Target)] = true
		default:
			t.Errorf("unexpected op %s", st.Op)
		}
	}
	if cuts > b.Cuts || crashes != b.Crashes {
		t.Errorf("spent %d cuts / %d crashes on budget %+v", cuts, crashes, b)
	}
	if c, _ := an.census(gwDown, netDown); c <= an.baseComps {
		t.Errorf("targeted attack left %d component(s) — no worse than intact (%d)", c, an.baseComps)
	}
}

// TestRandomScheduleMatchedBudget checks the baseline generator:
// deterministic per rng state, distinct across seeds, and spending
// exactly the budget.
func TestRandomScheduleMatchedBudget(t *testing.T) {
	spec, err := topo.ParseSpec("transitstub:gw=4,stubs=4,hosts=1,mix=0")
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(topo.ManifestOnly(spec, 7))
	b := an.BudgetFor(0.20)

	at := 5 * time.Second
	s1 := an.RandomSchedule(b, rand.New(rand.NewSource(3)), at)
	s2 := an.RandomSchedule(b, rand.New(rand.NewSource(3)), at)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same rng state, different random schedules")
	}
	s3 := an.RandomSchedule(b, rand.New(rand.NewSource(4)), at)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different rng states drew identical schedules")
	}
	if got, want := len(s1.Steps), b.Cuts+b.Crashes; got != want {
		t.Fatalf("random schedule spent %d steps, budget allows %d", got, want)
	}
}
