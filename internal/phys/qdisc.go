package phys

import (
	"fmt"

	"darpanet/internal/metrics"
)

// Qdisc is a queueing discipline for frames waiting at a transmitter. The
// default is a bounded FIFO; gateways that honour the IP type-of-service
// field install a priority queue whose classifier peeks at the datagram's
// precedence bits (the classifier is injected so this package stays
// ignorant of IP).
type Qdisc interface {
	// Enqueue accepts a frame, reporting false if it was dropped.
	Enqueue(q queuedFrame) bool
	// Dequeue removes and returns the next frame to transmit.
	Dequeue() (queuedFrame, bool)
	// Len returns the number of queued frames.
	Len() int
}

// fifoQdisc is a bounded drop-tail FIFO.
type fifoQdisc struct {
	frames []queuedFrame
	limit  int
}

// NewFIFO returns a bounded drop-tail FIFO discipline.
func NewFIFO(limit int) Qdisc {
	if limit <= 0 {
		limit = DefaultQueueLimit
	}
	return &fifoQdisc{limit: limit}
}

func (q *fifoQdisc) Enqueue(f queuedFrame) bool {
	if len(q.frames) >= q.limit {
		return false
	}
	q.frames = append(q.frames, f)
	return true
}

func (q *fifoQdisc) Dequeue() (queuedFrame, bool) {
	if len(q.frames) == 0 {
		return queuedFrame{}, false
	}
	f := q.frames[0]
	copy(q.frames, q.frames[1:])
	q.frames = q.frames[:len(q.frames)-1]
	return f, true
}

func (q *fifoQdisc) Len() int { return len(q.frames) }

// BandStats counts one priority band's traffic.
type BandStats struct {
	Enqueues uint64 // frames accepted into the band
	Drops    uint64 // frames tail-dropped because the band was full
}

// PrioQdisc serves strict-priority bands, each a bounded FIFO. Higher
// band index is served first. Each band keeps its own enqueue and drop
// counters: with only the NIC-aggregate TxDrops a band can starve or
// tail-drop invisibly, which hides exactly the type-of-service behavior
// E2 measures.
type PrioQdisc struct {
	bands    [][]queuedFrame
	perBand  int
	classify func(payload []byte) int
	stats    []BandStats
}

// NewPriority returns a strict-priority discipline with bands bands of
// perBand capacity each. classify maps a frame payload to a band in
// [0, bands); out-of-range results are clamped.
func NewPriority(bands, perBand int, classify func(payload []byte) int) *PrioQdisc {
	if bands <= 0 {
		bands = 8
	}
	if perBand <= 0 {
		perBand = DefaultQueueLimit
	}
	return &PrioQdisc{
		bands:    make([][]queuedFrame, bands),
		perBand:  perBand,
		classify: classify,
		stats:    make([]BandStats, bands),
	}
}

// BandStats returns a copy of one band's counters.
func (q *PrioQdisc) BandStats(band int) BandStats { return q.stats[band] }

func (q *PrioQdisc) Enqueue(f queuedFrame) bool {
	b := q.classify(f.f.Payload)
	if b < 0 {
		b = 0
	}
	if b >= len(q.bands) {
		b = len(q.bands) - 1
	}
	if len(q.bands[b]) >= q.perBand {
		q.stats[b].Drops++
		return false
	}
	q.stats[b].Enqueues++
	q.bands[b] = append(q.bands[b], f)
	return true
}

func (q *PrioQdisc) Dequeue() (queuedFrame, bool) {
	for b := len(q.bands) - 1; b >= 0; b-- {
		if len(q.bands[b]) > 0 {
			f := q.bands[b][0]
			copy(q.bands[b], q.bands[b][1:])
			q.bands[b] = q.bands[b][:len(q.bands[b])-1]
			return f, true
		}
	}
	return queuedFrame{}, false
}

func (q *PrioQdisc) Len() int {
	n := 0
	for _, b := range q.bands {
		n += len(b)
	}
	return n
}

// RegisterMetrics binds every band's counters into reg under
// <node>/qdisc/band<i>_{enqueues,drops}.
func (q *PrioQdisc) RegisterMetrics(reg *metrics.Registry, node string) {
	for i := range q.stats {
		reg.Counter(node, "qdisc", fmt.Sprintf("band%d_enqueues", i), &q.stats[i].Enqueues)
		reg.Counter(node, "qdisc", fmt.Sprintf("band%d_drops", i), &q.stats[i].Drops)
	}
}

// SetQdisc replaces the queueing discipline of the transmitter that serves
// this interface. On a point-to-point link each end has its own
// transmitter; on a bus or radio the single shared transmitter is
// replaced (all stations share the discipline, as they share the medium).
func (n *NIC) SetQdisc(q Qdisc) {
	switch m := n.medium.(type) {
	case *P2P:
		if m.ends[0] == n {
			m.tx[0].qdisc = q
		} else if m.ends[1] == n {
			m.tx[1].qdisc = q
		}
	case *Bus:
		m.tx.qdisc = q
	case *Radio:
		m.Bus.tx.qdisc = q
	}
}
