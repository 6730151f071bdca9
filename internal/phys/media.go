package phys

import (
	"fmt"

	"darpanet/internal/packet"
	"darpanet/internal/sim"
)

// clonePayload copies a frame payload for fan-out delivery, drawing from
// the frame's pool when it has one so broadcast replication stays on the
// pooled path.
func clonePayload(pool *packet.Pool, p []byte) []byte {
	c := pool.Get(len(p))
	copy(c, p)
	return c
}

// wire is what every medium is underneath: a named, configured stretch
// of one kernel's network that can be cut and made lossy, with the
// counters the conservation ledger reads. P2P, Bus and Boundary embed
// it, so the fault switches of Medium are written once.
type wire struct {
	k        *sim.Kernel
	name     string
	cfg      Config
	down     bool
	lostDown uint64
	noMatch  uint64 // frames released with no station to deliver to
	Drops    uint64 // frames dropped at a full output queue or flushed by a crashing node
}

// MTU returns the medium's maximum frame payload size.
func (w *wire) MTU() int { return w.cfg.MTU }

// SetDown makes the medium lose all frames (true) or carry them again
// (false). Frames already in flight still arrive; frames transmitted while
// down vanish, as on a cut wire.
func (w *wire) SetDown(down bool) { w.down = down }

// Down reports whether the medium is currently cut.
func (w *wire) Down() bool { return w.down }

// Loss returns the medium's independent per-frame loss probability.
func (w *wire) Loss() float64 { return w.cfg.Loss }

// SetLoss changes the medium's per-frame loss probability.
func (w *wire) SetLoss(l float64) { w.cfg.Loss = l }

// LostWhileDown returns how many frames vanished because the medium was cut.
func (w *wire) LostWhileDown() uint64 { return w.lostDown }

// lostToCut consumes f if the medium is cut, before anything is drawn for it.
func (w *wire) lostToCut(f Frame) bool {
	if w.down {
		w.lostDown++
		f.Release()
	}
	return w.down
}

// P2P is a full-duplex point-to-point link — the simulated analogue of the
// 56 kb/s serial trunks the ARPANET was built from. Exactly two stations
// may attach; each direction has its own transmitter and queue.
type P2P struct {
	wire
	ends [2]*NIC
	txs  [2]*transmitter
}

// NewP2P creates a point-to-point link with the given characteristics.
func NewP2P(k *sim.Kernel, name string, cfg Config) *P2P {
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	p := &P2P{wire: wire{k: k, name: name, cfg: cfg}}
	for i := range p.txs {
		p.txs[i] = newTransmitter(k, &p.cfg, p.propagate, &p.Drops)
	}
	registerMedium(&p.wire, nil, nil, p.txs[:]...)
	return p
}

// Attach connects a new interface to the link. It panics on a third
// attachment: a point-to-point link has exactly two ends.
func (p *P2P) Attach(name string) *NIC {
	for i := range p.ends {
		if p.ends[i] == nil {
			n := &NIC{name: name, addr: Addr(i + 1), medium: p, up: true}
			p.ends[i] = n
			registerNIC(p.k, n)
			return n
		}
	}
	panic(fmt.Sprintf("phys: P2P link %s already has two ends", p.name))
}

// Peer returns the interface at the other end of the link from n, or nil.
func (p *P2P) Peer(n *NIC) *NIC {
	switch n {
	case p.ends[0]:
		return p.ends[1]
	case p.ends[1]:
		return p.ends[0]
	}
	return nil
}

func (p *P2P) tx(n *NIC) *transmitter {
	if n == p.ends[1] {
		return p.txs[1]
	}
	return p.txs[0]
}

func (p *P2P) propagate(from *NIC, f Frame) {
	if p.lostToCut(f) {
		return
	}
	if p.cfg.Loss > 0 && p.k.Rand().Float64() < p.cfg.Loss {
		if peer := p.Peer(from); peer != nil {
			peer.stats.RxLost++
		} else {
			p.noMatch++
		}
		f.Release()
		return
	}
	peer := p.Peer(from)
	if peer == nil {
		p.noMatch++
		f.Release()
		return
	}
	if f.Dst != Broadcast && f.Dst != peer.addr {
		p.noMatch++
		f.Release()
		return
	}
	peer.deliver(f)
}

// Bus is a shared-medium LAN in the spirit of early Ethernet: every station
// hears every frame, the single transmitter is shared (one frame serializes
// at a time), and broadcast reaches all stations.
type Bus struct {
	wire     // its noMatch also counts a unicast frame whose only copy was lost
	stations []*NIC
	xmit     *transmitter
	next     Addr
	// Broadcast fan-out accounting: one transmitted broadcast frame
	// becomes one copy per matching station (bcastCopies counts both
	// delivered clones and copies the medium lost) plus the consumed
	// original (bcastFanout). Without these the conservation ledger
	// could not balance a LAN.
	bcastCopies uint64
	bcastFanout uint64
}

// NewBus creates a shared-bus LAN.
func NewBus(k *sim.Kernel, name string, cfg Config) *Bus {
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	b := &Bus{wire: wire{k: k, name: name, cfg: cfg}, next: 1}
	b.xmit = newTransmitter(k, &b.cfg, b.propagate, &b.Drops)
	registerMedium(&b.wire, &b.bcastCopies, &b.bcastFanout, b.xmit)
	return b
}

// Attach connects a new station to the LAN.
func (b *Bus) Attach(name string) *NIC {
	n := &NIC{name: name, addr: b.next, medium: b, up: true}
	b.next++
	b.stations = append(b.stations, n)
	registerNIC(b.k, n)
	return n
}

func (b *Bus) tx(*NIC) *transmitter { return b.xmit }

// propagate delivers f to the stations it addresses, each copy lost
// independently with the medium's loss probability.
func (b *Bus) propagate(from *NIC, f Frame) {
	if b.lostToCut(f) {
		return
	}
	delivered, accounted := false, false
	for _, st := range b.stations {
		if st == from {
			continue
		}
		if f.Dst != Broadcast && f.Dst != st.addr {
			continue
		}
		if b.cfg.Loss > 0 && b.k.Rand().Float64() < b.cfg.Loss {
			st.stats.RxLost++
			if f.Dst == Broadcast {
				// A lost broadcast copy is never cloned; count the
				// virtual copy so RxLost has a matching origination.
				b.bcastCopies++
			} else {
				accounted = true
			}
			continue
		}
		g := f
		if f.Dst == Broadcast {
			// Each broadcast receiver gets (and releases) its own copy;
			// the original is released below.
			g.Payload = clonePayload(f.pool, f.Payload)
			b.bcastCopies++
		} else {
			delivered, accounted = true, true
		}
		st.deliver(g)
	}
	if !delivered {
		if f.Dst == Broadcast {
			b.bcastFanout++
		} else if !accounted {
			b.noMatch++
		}
		f.Release()
	}
}
