package drive

import (
	"time"

	"darpanet/internal/core"
	"darpanet/internal/exp"
	"darpanet/internal/metrics"
	"darpanet/internal/phys"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// E13's fixed points, restated from its public pieces: a 3-transit /
// 12-stub internet of T1 trunks, 512-frame gateway queues, flows
// admitted for 15 s and given 10 s to drain, offered 8× one trunk.
const (
	CollapseWindow = 15 * time.Second
	CollapseDrain  = 10 * time.Second
	collapseQueue  = 512
	collapseLoad   = 8

	t1Bps = 1_544_000.0
)

// CollapseCell is one E13-T tournament cell at one load point: a
// gateway queue policy against a host congestion response.
type CollapseCell struct {
	policy phys.PolicySpec
	spec   workload.Spec
	seed   int64
	sub    int

	nw  *core.Network
	m   *topo.Manifest
	eng *workload.Engine
}

// StormCell is drop-tail gateways under naive pre-1988 hosts — the
// cell that collapses. ManagedCell is RED under NewReno — the cell
// that does not. seed fixes the internet; (seed, sub) the flow
// population, so successive sub values offer independent traffic to the
// same topology, and a storm and a managed cell with equal (seed, sub)
// face identical offered traffic, as in E13-T.
func StormCell(seed int64, sub int) *CollapseCell {
	ws := exp.E13Workload()
	ws.VJ, ws.NaiveRTO, ws.CC = false, true, tcp.CCNaive
	return newCollapseCell(seed, sub, phys.PolicySpec{Kind: phys.PolicyDropTail}, ws)
}

func ManagedCell(seed int64, sub int) *CollapseCell {
	ws := exp.E13Workload()
	ws.VJ, ws.NaiveRTO, ws.CC = true, false, tcp.CCNewReno
	return newCollapseCell(seed, sub, phys.PolicySpec{Kind: phys.PolicyRED}, ws)
}

func newCollapseCell(seed int64, sub int, policy phys.PolicySpec, ws workload.Spec) *CollapseCell {
	rate := collapseLoad * t1Bps / ws.WithRate(1).OfferedBps()
	return &CollapseCell{policy: policy, spec: ws.WithRate(rate), seed: seed, sub: sub}
}

// Generate builds the internet (topo + core).
func (c *CollapseCell) Generate() {
	c.nw, c.m = topo.Generate(topo.Spec{Shape: topo.TransitStub, Gateways: 3, StubsPer: 4, Hosts: 1}, c.seed)
}

// InstallRoutes runs core's static route oracle.
func (c *CollapseCell) InstallRoutes() { c.nw.InstallStaticRoutes() }

// InstallQdisc puts the cell's queue policy on every gateway interface.
func (c *CollapseCell) InstallQdisc() {
	for _, g := range c.m.GatewayNames() {
		c.nw.Node(g).InstallQueuePolicy(collapseQueue, c.policy)
	}
}

// Arm creates the traffic engine over the hosts and admits flows for
// window. With sub 0 the engine seed is the one E13 gives its 8× load
// point (index 4 of the sweep); E13 uses indexes below 7, so later sub
// values never collide with another load point's population.
func (c *CollapseCell) Arm(window time.Duration) {
	c.eng = workload.New(c.nw, c.m.HostNames(), c.spec, c.seed*1000+4+7*int64(c.sub))
	c.eng.Arm(window)
}

// RunFor advances the simulation.
func (c *CollapseCell) RunFor(d time.Duration) { c.nw.RunFor(d) }

// Frames is the number of link frames transmitted so far.
func (c *CollapseCell) Frames() uint64 {
	return metrics.For(c.nw.Kernel()).Snapshot().Sum("nic/tx_frames")
}

// PendingEvents is the kernel's queue depth right now.
func (c *CollapseCell) PendingEvents() int { return c.nw.Kernel().PendingEvents() }

// CollapseSummary is the slice of workload.Summary the benchmark checks
// and digests.
type CollapseSummary struct {
	Started, Completed           int
	OfferedBytes, DeliveredBytes uint64
	Retransmits                  uint64
}

// Summarize reduces the flow log over the admission window.
func (c *CollapseCell) Summarize(window time.Duration) CollapseSummary {
	s := c.eng.Summarize(window)
	return CollapseSummary{s.Started, s.Completed, s.OfferedBytes, s.DeliveredBytes, s.Retransmits}
}

// Read snapshots the registry.
func (c *CollapseCell) Read() Reading { return read(c.nw.Kernel()) }
