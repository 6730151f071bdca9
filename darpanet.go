// Package darpanet is a from-scratch reproduction of the architecture
// described in D. D. Clark, "The Design Philosophy of the DARPA Internet
// Protocols" (SIGCOMM 1988): a complete userspace TCP/IP internetwork —
// IP with fragmentation, TCP, UDP, ICMP, an XNET-style debugger, an
// NVP-style voice protocol, distance-vector routing and store-and-forward
// gateways — running over a deterministic discrete-event simulation of
// diverse link technologies, plus the X.25-style virtual-circuit
// architecture the paper argues against, as a measurable baseline.
//
// The library lives under internal/; start with internal/core (the
// topology builder), see DESIGN.md for the system inventory, and run
// cmd/experiments for the paper's claims reproduced as tables.
// bench_test.go pins every experiment's table and metrics by digest;
// what each costs to simulate is measured by bench/'s campaign_mc
// workload (bash bench/run.sh -workload campaign_mc).
package darpanet
