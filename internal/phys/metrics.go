package phys

import (
	"darpanet/internal/metrics"
	"darpanet/internal/sim"
)

// This file is the link layer's hookup to the telemetry spine
// (internal/metrics). Registration happens once, at Attach /
// construction time; nothing on the frame hot path ever touches the
// registry — the counters it binds are the same plain uint64 fields the
// send and deliver paths already increment.

// registerNIC binds a freshly attached interface's counters under
// <nic-name>/nic/...
func registerNIC(k *sim.Kernel, n *NIC) {
	reg := metrics.For(k)
	s := &n.stats
	reg.Counter(n.name, "nic", "tx_frames", &s.TxFrames)
	reg.Counter(n.name, "nic", "tx_bytes", &s.TxBytes)
	reg.Counter(n.name, "nic", "rx_frames", &s.RxFrames)
	reg.Counter(n.name, "nic", "rx_bytes", &s.RxBytes)
	reg.Counter(n.name, "nic", "tx_drops", &s.TxDrops)
	reg.Counter(n.name, "nic", "rx_lost", &s.RxLost)
	reg.Counter(n.name, "nic", "rx_down", &s.RxDown)
	reg.Counter(n.name, "nic", "rx_no_recv", &s.RxNoRecv)
}

// registerMedium binds a medium's loss/drop counters and occupancy
// gauges under <medium-name>/medium/... The bcast pair is nil for media
// without fan-out (P2P, Boundary).
func registerMedium(w *wire, bcastCopies, bcastFanout *uint64, txs ...*transmitter) {
	reg := metrics.For(w.k)
	reg.Counter(w.name, "medium", "lost_down", &w.lostDown)
	reg.Counter(w.name, "medium", "queue_drops", &w.Drops)
	reg.Counter(w.name, "medium", "no_match", &w.noMatch)
	if bcastCopies != nil {
		reg.Counter(w.name, "medium", "bcast_copies", bcastCopies)
		reg.Counter(w.name, "medium", "bcast_fanout", bcastFanout)
	}
	reg.Gauge(w.name, "medium", "queued", func() uint64 {
		var n uint64
		for _, t := range txs {
			if t.qdisc != nil {
				n += uint64(t.qdisc.Len())
			}
			if t.busy {
				n++ // the frame occupying the transmitter
			}
		}
		return n
	})
	reg.Gauge(w.name, "medium", "in_flight", func() uint64 { return w.inFlight })
}
