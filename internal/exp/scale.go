package exp

import (
	"fmt"
	"math/rand"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/metrics"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/workload"
)

// The phases the scale experiments share. E12 (one kernel, routed by
// gossip) and E16 (region kernels, routed by the static oracle) differ
// in how the internet is built, converged and audited; once routes
// stand, both carry the same traffic matrix through any of its regions,
// tally it the same way and close the same ledger.

// matrixXferBytes is the size of each bulk transfer in the matrix.
const matrixXferBytes = 100_000

// trafficMatrix is a background load of host-to-host flows drawn across
// the whole internet: UDP request/response plus bulk TCP.
type trafficMatrix struct {
	queries, xfers []*workload.Flow
}

// startTrafficMatrix draws and starts the matrix: up to nFlows UDP
// flows (20 × 256 B queries at 250 ms, ports 7000+f) and up to four
// 100 000 B transfers (ports 9000+x), never more flows than half the
// hosts. Every pair costs rng two draws, UDP flows first — the recorded
// tables depend on that order.
func startTrafficMatrix(nw *core.Network, rng *rand.Rand, hosts []string, nFlows int) *trafficMatrix {
	tm := &trafficMatrix{}
	nFlows = min(nFlows, len(hosts)/2)
	for f := 0; f < nFlows; f++ {
		from, to := workload.PickPair(rng, hosts)
		tm.queries = append(tm.queries, workload.StartQueries(nw, from, to, uint16(7000+f), 20, 250*time.Millisecond, 256, 0))
	}
	for x := 0; x < min(4, nFlows); x++ {
		from, to := workload.PickPair(rng, hosts)
		tm.xfers = append(tm.xfers, workload.StartBulk(nw, from, to, uint16(9000+x), matrixXferBytes, tcp.Options{SendBufferSize: 65535}))
	}
	return tm
}

// report reads the matrix's endpoints and every kernel of the internet
// that carried it, and closes res with what both scale experiments end
// on: the traffic and cost rows (ledgerLabel names the ledger row — a
// sharded run says what the sum covers) and the nine metrics udp_sent …
// frame_ledger_delta. Per-delivery forwarding cost is the datagram
// architecture's scaling bill (gateway relays per end-to-end delivery);
// the ledger proves the simulation lost not a single frame unaccounted.
func (tm *trafficMatrix) report(nw *core.Network, res *Result, ledgerLabel string) {
	sent, got := 0, 0
	rtts := &stats.Sample{} // ms
	for _, q := range tm.queries {
		sent += q.Sent
		got += len(q.RTTs)
		for _, r := range q.RTTs {
			rtts.Add(r.Seconds() * 1000)
		}
	}
	xferDone, xferBytesRx := 0, 0
	var slowest sim.Duration
	for _, tr := range tm.xfers {
		xferBytesRx += tr.BytesRx
		if tr.Done {
			xferDone++
			if e := tr.FCT(); e > slowest {
				slowest = e
			}
		}
	}

	// Every kernel's counters end to end: a frame that left a NIC in one
	// region and arrived in another is still one frame.
	snap := metrics.Totals(nw.Kernels()...)
	fwdPerDelivery := 0.0
	if delivers := snap.Sum("ip/in_delivers"); delivers > 0 {
		fwdPerDelivery = float64(snap.Sum("ip/forwarded")) / float64(delivers)
	}
	originated, ledgerDelta := frameLedger(snap)

	res.Table.AddRow("traffic", "udp delivered", fmt.Sprintf("%d/%d", got, sent))
	res.Table.AddRow("traffic", "udp rtt p50 / p99",
		fmt.Sprintf("%.1f / %.1f ms", rtts.Percentile(50), rtts.Percentile(99)))
	res.Table.AddRow("traffic", "tcp transfers done",
		fmt.Sprintf("%d/%d (%s each)", xferDone, len(tm.xfers), stats.HumanBytes(matrixXferBytes)))
	res.Table.AddRow("cost", "frames originated", fmt.Sprint(originated))
	res.Table.AddRow("cost", "forwards per delivery", fmt.Sprintf("%.2f", fwdPerDelivery))
	res.Table.AddRow("cost", ledgerLabel, fmt.Sprint(ledgerDelta))

	res.AddMetric("udp_sent", "", float64(sent))
	res.AddMetric("udp_delivered", "", ratio(got, sent))
	res.AddMetric("udp_rtt_p50", "ms", rtts.Percentile(50))
	res.AddMetric("udp_rtt_p99", "ms", rtts.Percentile(99))
	res.AddMetric("tcp_done", "", ratio(xferDone, len(tm.xfers)))
	res.AddMetric("tcp_bytes", "B", float64(xferBytesRx))
	res.AddMetric("tcp_slowest", "s", slowest.Seconds())
	res.AddMetric("fwd_per_delivery", "", fwdPerDelivery)
	res.AddMetric("frame_ledger_delta", "", float64(ledgerDelta))
}

// frameLedger closes the frame-conservation ledger over a counter
// snapshot (one kernel's, or metrics.Totals over several): every frame
// a NIC originated is, by the end of the run, delivered, lost, dropped,
// or still sitting in a queue — nothing vanishes and nothing is
// double-counted.
//
//	tx_frames + bcast_copies =
//	    rx_frames + rx_lost + rx_down + rx_no_recv     (consumed at NICs)
//	  + queue_drops + lost_down + no_match             (consumed by media)
//	  + bcast_fanout                                   (broadcast originals)
//	  + queued + in_flight                             (still travelling)
//
// bcast_copies inflates the origination side by the extra per-station
// copies a shared medium fabricates, so each delivery or loss of a copy
// has a matching origination; bcast_fanout retires the consumed
// original. It returns the origination side and originated − accounted,
// which must be zero.
func frameLedger(s metrics.Snapshot) (originated uint64, delta int64) {
	originated = s.Sum("nic/tx_frames") + s.Sum("medium/bcast_copies")
	accounted := s.Sum("nic/rx_frames") + s.Sum("nic/rx_lost") +
		s.Sum("nic/rx_down") + s.Sum("nic/rx_no_recv") +
		s.Sum("medium/queue_drops") + s.Sum("medium/lost_down") +
		s.Sum("medium/no_match") + s.Sum("medium/bcast_fanout") +
		s.Sum("medium/queued") + s.Sum("medium/in_flight")
	return originated, int64(originated) - int64(accounted)
}

// ratio renders num/den as a fraction metric (0 when empty).
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
