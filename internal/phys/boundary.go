package phys

import (
	"fmt"

	"darpanet/internal/sim"
)

// Boundary is one half of a cross-shard point-to-point link: the only
// coupling between the region kernels of a sharded simulation. Each
// half lives entirely inside its own kernel — its NIC, transmitter and
// queue are ordinary single-kernel state — and the two halves touch
// only at the epoch barrier, when the shard group's exchange callback
// calls Drain on each half single-threaded.
//
// Serialization happens in the sender's epoch at the configured link
// rate, and the instant it ends the frame parks in the outbox (export).
// The propagation delay and jitter are applied at the barrier, so a
// frame serialized at time t arrives at t+Delay(+jitter), in flight on
// the peer's wire. Because the shard group's lookahead never exceeds
// the smallest boundary Delay, the arrival instant can never precede
// the receiving kernel's clock at the barrier — Drain panics if it ever
// would, making a lookahead misconfiguration loud instead of silently
// non-causal.
//
// The wire underneath is this half's own: SetDown cuts this half — frames
// from either direction are lost at the barrier while either half is down
// — and SetLoss and LostWhileDown likewise speak for the local half. Call
// them only from this half's kernel (or at the barrier).
type Boundary struct {
	wire
	nic  *NIC
	peer *Boundary
	xmit *transmitter

	// outbox holds frames that finished serializing this epoch and wait
	// for the barrier; the slice is reset (capacity kept) every Drain.
	// They count in this half's inFlight, as the arrivals Drain puts in
	// flight on the peer's wire count in the peer's until delivered, so
	// the global conservation ledger (summed across all region
	// registries) balances.
	outbox []outFrame
}

// outFrame is a frame awaiting export: serialization finished at "at"
// in the sending kernel; propagation starts there.
type outFrame struct {
	f  Frame
	at sim.Time
}

// NewBoundaryPair creates the two halves of a cross-shard link between
// kernels ka and kb. The halves share one Config; whichever half's
// station attaches first gets link address 1, the other's address 2 —
// a P2P link's two ends.
func NewBoundaryPair(ka, kb *sim.Kernel, name string, cfg Config) (*Boundary, *Boundary) {
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	if cfg.Delay <= 0 {
		panic(fmt.Sprintf("phys: boundary link %s needs a positive propagation delay (it is the shard lookahead)", name))
	}
	mk := func(k *sim.Kernel) *Boundary {
		b := &Boundary{wire: wire{k: k, name: name, cfg: cfg, arrive: (*NIC).deliver}}
		b.xmit = newTransmitter(&b.wire, b.export)
		registerMedium(&b.wire, nil, nil, b.xmit)
		return b
	}
	a, b := mk(ka), mk(kb)
	a.peer, b.peer = b, a
	return a, b
}

// Delay returns the link's one-way propagation delay — the lookahead
// this link contributes to the shard group.
func (b *Boundary) Delay() sim.Duration { return b.cfg.Delay }

// Attach connects the half's single station. A boundary half has
// exactly one end; the peer's station is in another kernel.
func (b *Boundary) Attach(name string) *NIC {
	if b.nic != nil {
		panic(fmt.Sprintf("phys: boundary half %s already has its end", b.name))
	}
	n := &NIC{name: name, addr: 1, tx: b.xmit, up: true}
	if b.peer.nic != nil {
		n.addr = 2
	}
	b.nic = n
	registerNIC(b.k, n)
	return n
}

// export runs in the sending kernel the instant a frame finishes
// serializing: the frame parks in the outbox until the epoch barrier.
func (b *Boundary) export(_ *NIC, f Frame) {
	b.inFlight++
	b.outbox = append(b.outbox, outFrame{f: f, at: b.k.Now()})
}

// Drain moves this half's exported frames into the peer kernel,
// applying the link's propagation delay, jitter, loss and down state.
// It must run at the epoch barrier, single-threaded, with both kernels
// quiescent: it touches both kernels' state (scheduling, RNG, pools),
// which is only safe there. Draining every half in a fixed order keeps
// the simulation deterministic at any worker count.
func (b *Boundary) Drain() {
	p := b.peer
	for i := range b.outbox {
		of := &b.outbox[i]
		f := of.f
		of.f = Frame{}
		if b.down || p.down {
			b.lostDown++
			f.Release()
			continue
		}
		if b.lost(p.k.Rand(), p.nic, f) {
			continue
		}
		arrival := of.at.Add(b.cfg.Delay)
		if b.cfg.Jitter > 0 {
			arrival = arrival.Add(sim.Duration(p.k.Rand().Int63n(int64(b.cfg.Jitter))))
		}
		if arrival < p.k.Now() {
			panic(fmt.Sprintf("phys: boundary %s: arrival %v before receiver clock %v (lookahead exceeds link delay)",
				b.name, arrival, p.k.Now()))
		}
		// Re-pool the payload: buffers belong to one kernel's pool, and
		// the barrier is the only point both pools are safe to touch.
		g := Frame{Src: f.Src, Dst: f.Dst, pool: p.nic.pool}
		g.Payload = clonePayload(p.nic.pool, f.Payload)
		f.Release()
		p.fly(arrival, p.nic, g)
	}
	b.inFlight -= uint64(len(b.outbox))
	b.outbox = b.outbox[:0]
}
