package core_test

import (
	"testing"

	"darpanet/internal/core"
)

// TestOracleEntriesAgree pins the two static-oracle entries to one
// body: the one-region entry (nw.InstallStaticRoutes) and the N-region
// entry handed that same network alone, collapse off, must leave every
// node of the spur internet with the same table — and a second run of
// either must retract and reinstall to the same state.
func TestOracleEntriesAgree(t *testing.T) {
	one, many := spurNet(1), spurNet(1)
	one.InstallStaticRoutes()
	core.InstallStaticRoutesExact([]*core.Network{many})
	for round := 1; round <= 2; round++ {
		for _, name := range one.Nodes() {
			a, b := one.Node(name).Table.String(), many.Node(name).Table.String()
			if a != b {
				t.Errorf("round %d, %s: entries disagree\none-region:\n%sN-region over one:\n%s", round, name, a, b)
			}
			if one.Node(name).Table.Len() < 3 {
				t.Errorf("%s holds %d routes: the oracle installed nothing to compare", name, one.Node(name).Table.Len())
			}
		}
		one.InstallStaticRoutes()
		core.InstallStaticRoutesExact([]*core.Network{many})
	}
}
