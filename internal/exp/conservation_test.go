package exp

import (
	"slices"
	"strings"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/phys"
	"darpanet/internal/stack"
)

// scopeOf strips the trailing node/layer/name segments, leaving the
// AddCounters scope prefix ("" for single-kernel results like E11).
func scopeOf(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 3 {
		return ""
	}
	return strings.Join(parts[:len(parts)-3], "/")
}

// groupByKernel splits a result's counters back into one snapshot per
// exported kernel (= per AddCounters scope).
func groupByKernel(s metrics.Snapshot) map[string]metrics.Snapshot {
	groups := map[string]metrics.Snapshot{}
	for _, e := range s {
		sc := scopeOf(e.Path)
		groups[sc] = append(groups[sc], e)
	}
	return groups
}

// checkConservation asserts the frame-conservation ledger (frameLedger)
// on one kernel's counters.
func checkConservation(t *testing.T, scope string, g metrics.Snapshot) {
	t.Helper()
	if originated, delta := frameLedger(g); delta != 0 {
		t.Errorf("%s: ledger unbalanced: originated %d != accounted %d (Δ %d)",
			scope, originated, int64(originated)-delta, delta)
	}
}

// TestCounterConservation runs E1, E5 and E11 and checks the ledger on
// every kernel each one exports: survivability (node crashes and
// flushed queues), overhead (loss and saturated queues) and scripted
// fault injection must all keep the frame ledger balanced.
func TestCounterConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full experiments")
	}
	for _, run := range []struct {
		name   string
		driver func(seed int64) Result
	}{
		{"E1", RunE1},
		{"E5", RunE5},
		{"E11", row("E11").Run},
	} {
		run := run
		t.Run(run.name, func(t *testing.T) {
			t.Parallel()
			res := run.driver(1988)
			groups := groupByKernel(res.Counters())
			if len(groups) == 0 {
				t.Fatal("result exports no counters")
			}
			var traffic uint64
			for scope, g := range groups {
				checkConservation(t, scope, g)
				traffic += g.Sum("nic/rx_frames")
			}
			if traffic == 0 {
				t.Error("no kernel delivered a single frame — ledger trivially balanced")
			}
		})
	}
}

// TestCrashFlushLeavesSharedQueueToTheSurvivors: two stations share a
// LAN's transmitter under a RED queue driven past its min threshold, and
// one of them crashes. The flush takes the dead station's frames out of
// the queue and nothing else: the survivor's frames keep their places
// and are not put to the policy a second time — no second enqueue count,
// no move of the average, no frame refused on the way back in and then
// neither released nor counted. At the end of the run the receiver has
// every frame the queue accepted from the survivor, in order, the pool
// is drained and the frame ledger closes.
func TestCrashFlushLeavesSharedQueueToTheSurvivors(t *testing.T) {
	nw := core.New(1)
	nw.AddNet("lan", "10.1.0.0/24", core.LAN, phys.Config{BitsPerSec: 1_000_000, MTU: 1500})
	a, b, c := nw.AddHost("a", "lan"), nw.AddHost("b", "lan"), nw.AddHost("c", "lan")
	spec := phys.PolicySpec{Kind: phys.PolicyRED, MinTh: 4, MaxTh: 40, MaxP: 0.5, Wq: 0.5}
	red := a.InstallQueuePolicy(64, spec)[0]

	var fromA []byte
	c.RegisterProtocol(200, func(h ipv4.Header, p []byte) {
		if h.Src == a.Addr() {
			fromA = append(fromA, p[0])
		}
	})
	const each = 16
	for i := 0; i < each; i++ {
		for _, n := range []*stack.Node{a, b} {
			if err := n.Send(ipv4.Header{Dst: c.Addr(), Proto: 200}, []byte{byte(i), 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	nicA, nicB := a.Interface(0).NIC, b.Interface(0).NIC
	if red.Avg() <= float64(spec.MinTh) || nicB.Stats().TxDrops == 0 {
		t.Fatalf("queue not driven into RED's ramp: avg %.1f, b refused %d", red.Avg(), nicB.Stats().TxDrops)
	}
	before, avg, queued, refusedB := red.Stats(), red.Avg(), nicA.QueueLen(), nicB.Stats().TxDrops
	// a's first frame took the transmitter; the rest the queue accepted wait.
	wantA := each - int(nicA.Stats().TxDrops)

	nw.CrashNode("b")

	flushed := int(nicB.Stats().TxDrops - refusedB)
	if flushed == 0 || nicA.QueueLen() != queued-flushed || nicA.QueueLen() != wantA-1 {
		t.Fatalf("flush took %d of %d queued and left %d, want a's %d left", flushed, queued, nicA.QueueLen(), wantA-1)
	}
	if red.Stats() != before || red.Avg() != avg {
		t.Errorf("flush ran the policy again: stats %+v -> %+v, avg %v -> %v", before, red.Stats(), avg, red.Avg())
	}

	nw.RunFor(time.Second)
	if len(fromA) != wantA || !slices.IsSorted(fromA) {
		t.Errorf("c received %v from a, want the %d frames the queue accepted, in order", fromA, wantA)
	}
	if s := stack.PoolFor(nw.Kernel()).Stats(); s.Gets != s.Puts {
		t.Errorf("pooled buffers stranded: gets=%d puts=%d", s.Gets, s.Puts)
	}
	checkConservation(t, "lan", metrics.For(nw.Kernel()).Snapshot())
}
