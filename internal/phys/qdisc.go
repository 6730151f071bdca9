package phys

import (
	"fmt"

	"darpanet/internal/metrics"
)

// Qdisc is a queueing discipline for frames waiting at a transmitter. The
// default is the drop-tail PolicyQdisc; gateways that honour the IP
// type-of-service field install a priority queue whose classifier peeks
// at the datagram's precedence bits (the classifier is injected so this
// package stays ignorant of IP).
type Qdisc interface {
	// Enqueue accepts a frame, reporting false if it was dropped.
	Enqueue(q queuedFrame) bool
	// Dequeue removes and returns the next frame to transmit.
	Dequeue() (queuedFrame, bool)
	// Len returns the number of queued frames.
	Len() int
	// filter removes in place the queued frames keep refuses, order and
	// counters otherwise untouched, and returns how many it removed.
	filter(keep func(queuedFrame) bool) int
}

// ring is the one bounded FIFO under every discipline: a circular
// buffer grown by doubling up to limit, so push and pop are O(1) however
// deep the queue. A discipline is the admission rule in front of it.
type ring struct {
	buf   []queuedFrame
	head  int // index of the oldest frame
	n     int
	limit int
}

// newRing returns an empty ring holding at most limit frames; a limit
// of zero or less means DefaultQueueLimit.
func newRing(limit int) ring {
	if limit <= 0 {
		limit = DefaultQueueLimit
	}
	return ring{limit: limit}
}

// Len returns the number of queued frames.
func (r *ring) Len() int { return r.n }

// slot returns the buffer index of the i'th oldest frame.
func (r *ring) slot(i int) int {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// push appends f, reporting false if the ring is at its limit.
func (r *ring) push(f queuedFrame) bool {
	if r.n >= r.limit {
		return false
	}
	if r.n == len(r.buf) {
		grown := make([]queuedFrame, min(max(2*len(r.buf), 8), r.limit))
		for i := range r.n {
			grown[i] = r.buf[r.slot(i)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[r.slot(r.n)] = f
	r.n++
	return true
}

// pop removes and returns the oldest frame. The slot is zeroed: a
// popped payload must not stay reachable from the queue.
func (r *ring) pop() (queuedFrame, bool) {
	if r.n == 0 {
		return queuedFrame{}, false
	}
	f := r.buf[r.head]
	r.buf[r.head] = queuedFrame{}
	r.head = r.slot(1)
	r.n--
	return f, true
}

// filter removes in place every frame keep refuses, preserving the
// order of the rest, and returns how many it removed.
func (r *ring) filter(keep func(queuedFrame) bool) int {
	kept := 0
	for i := range r.n {
		if f := r.buf[r.slot(i)]; keep(f) {
			r.buf[r.slot(kept)] = f
			kept++
		}
	}
	for i := kept; i < r.n; i++ {
		r.buf[r.slot(i)] = queuedFrame{}
	}
	removed := r.n - kept
	r.n = kept
	return removed
}

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
	bands    []ring
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
	q := &PrioQdisc{
		bands:    make([]ring, bands),
		classify: classify,
		stats:    make([]BandStats, bands),
	}
	for i := range q.bands {
		q.bands[i] = newRing(perBand)
	}
	return q
}

func (q *PrioQdisc) Enqueue(f queuedFrame) bool {
	b := min(max(q.classify(f.f.Payload), 0), len(q.bands)-1)
	if !q.bands[b].push(f) {
		q.stats[b].Drops++
		return false
	}
	q.stats[b].Enqueues++
	return true
}

func (q *PrioQdisc) Dequeue() (queuedFrame, bool) {
	for b := len(q.bands) - 1; b >= 0; b-- {
		if f, ok := q.bands[b].pop(); ok {
			return f, true
		}
	}
	return queuedFrame{}, false
}

func (q *PrioQdisc) Len() int {
	n := 0
	for i := range q.bands {
		n += q.bands[i].Len()
	}
	return n
}

func (q *PrioQdisc) filter(keep func(queuedFrame) bool) int {
	n := 0
	for i := range q.bands {
		n += q.bands[i].filter(keep)
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
// this interface. On a point-to-point or cross-shard link each end has its
// own transmitter; on a bus the single shared transmitter is
// replaced (all stations share the discipline, as they share the medium).
func (n *NIC) SetQdisc(q Qdisc) { n.tx.qdisc = q }
