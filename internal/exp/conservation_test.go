package exp

import (
	"strings"
	"testing"

	"darpanet/internal/metrics"
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
		{"E11", RunE11},
	} {
		run := run
		t.Run(run.name, func(t *testing.T) {
			t.Parallel()
			res := run.driver(1988)
			groups := groupByKernel(res.Counters)
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
