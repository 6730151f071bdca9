package core

import "darpanet/internal/ipv4"

// InstallStaticRoutesExact is the N-region oracle entry with
// default-route collapse off — the setting the one-region entry runs
// with — so a test can hold the two entries against each other.
func InstallStaticRoutesExact(regions []*Network) { installStaticRoutes(regions, false) }

// InstallStaticRoutesReference runs the two-sweep reference oracle
// (oracle_ref_test.go) over the regions, aggregated or not, retracting
// what any earlier oracle run installed as the oracle does.
func InstallStaticRoutesReference(regions []*Network, aggregate bool) {
	refInstallStaticRoutes(regions, aggregate)
}

// AggRoutes returns the prefixes of the aggregates — a collapsed default
// or blocks — the last oracle run recorded for the named node, in the
// order it installed them.
func (nw *Network) AggRoutes(node string) []ipv4.Prefix { return nw.in.aggRoutes[nw.Node(node)] }
