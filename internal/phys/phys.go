// Package phys models the physical/link layer: network interfaces and the
// media that connect them.
//
// The 1988 paper's third goal is that the Internet architecture "must
// accommodate a variety of networks" by assuming almost nothing of them: a
// network can carry a packet of some reasonable minimum size, with some
// addressing, and nothing more. This package supplies that variety in
// simulated form — point-to-point serial lines and shared buses — each with
// its own bandwidth, propagation delay, MTU, loss and jitter, so the IP
// layer above is exercised against the same diversity the ARPANET-era
// internet faced. A lossy packet-radio net is a Bus with a small MTU, high
// loss and jitter; its burst loss is a fault storm (Medium.SetLoss).
//
// Frame payloads may be pool-backed (see packet.Pool): a NIC with a pool
// attached stamps outgoing frames with it, ownership travels with the
// frame, and whichever component finally consumes the frame — the
// receiving stack, or the medium when it drops or loses the frame —
// releases the payload back to the pool. NICs without a pool carry plain
// garbage-collected payloads and Release is a no-op.
package phys

import (
	"fmt"

	"darpanet/internal/packet"
	"darpanet/internal/sim"
)

// Addr is a link-level address, unique among the stations of one medium.
type Addr uint32

// Broadcast is the link-level broadcast address.
const Broadcast Addr = 0xffffffff

// String formats the address, naming the broadcast address specially.
func (a Addr) String() string {
	if a == Broadcast {
		return "bcast"
	}
	return fmt.Sprintf("#%d", uint32(a))
}

// Frame is a link-level frame: a payload addressed between two stations of
// one medium. The frame owns its payload; the owner hands the frame on
// (transferring ownership) or calls Release exactly once.
type Frame struct {
	Src, Dst Addr
	Payload  []byte
	pool     *packet.Pool
}

// Release returns the payload to the pool it was drawn from and empties
// the frame. It is a no-op for unpooled frames, so every consumption
// point may call it unconditionally.
func (f *Frame) Release() {
	if f.pool != nil && f.Payload != nil {
		f.pool.Put(f.Payload)
	}
	f.Payload = nil
	f.pool = nil
}

// Stats counts a NIC's traffic.
type Stats struct {
	TxFrames, TxBytes uint64
	RxFrames, RxBytes uint64
	TxDrops           uint64 // dropped at the output queue
	RxLost            uint64 // lost by the medium on the way in
	RxDown            uint64 // arrived while the interface was down
	RxNoRecv          uint64 // arrived with no receiver registered
}

// NIC is a network interface: the attachment point between a node's stack
// and a medium. The stack registers a receive function; the medium invokes
// it for frames addressed to the NIC (or broadcast).
type NIC struct {
	name     string
	addr     Addr
	medium   Medium
	up       bool
	recv     func(Frame)
	onTxDrop func(payload []byte)
	onState  []func(up bool)
	pool     *packet.Pool
	stats    Stats
}

// OnTxDrop registers a callback invoked with the payload of each frame
// dropped at this interface's output queue. The stack uses it to emit
// ICMP source quench — the era's (admittedly weak) congestion signal.
// The payload is only valid for the duration of the call.
func (n *NIC) OnTxDrop(fn func(payload []byte)) { n.onTxDrop = fn }

// SetPool attaches a buffer pool to the interface. Payloads passed to
// Send must then be owned by the caller and drawn from the same pool;
// Send takes ownership and the frame's eventual consumer releases them.
func (n *NIC) SetPool(p *packet.Pool) { n.pool = p }

// Name returns the interface name given at attach time (e.g. "gw1.eth0").
func (n *NIC) Name() string { return n.name }

// Addr returns the interface's link-level address on its medium.
func (n *NIC) Addr() Addr { return n.addr }

// MTU returns the largest payload one frame on this medium may carry.
func (n *NIC) MTU() int { return n.medium.MTU() }

// Up reports whether the interface is administratively up.
func (n *NIC) Up() bool { return n.up }

// SetUp raises or lowers the interface. A lowered interface neither sends
// nor receives; lowering an interface is the fault-injection primitive used
// by the survivability experiments. State transitions (and only real
// transitions — a redundant SetUp is a no-op) are reported to every
// watcher registered with OnStateChange, so routing protocols can react
// to a loss of connectivity immediately instead of waiting for a timeout.
func (n *NIC) SetUp(up bool) {
	if n.up == up {
		return
	}
	n.up = up
	for _, fn := range n.onState {
		fn(up)
	}
}

// OnStateChange registers a watcher invoked after every administrative
// up/down transition of the interface. Watchers run synchronously on the
// simulation goroutine, in registration order.
func (n *NIC) OnStateChange(fn func(up bool)) {
	n.onState = append(n.onState, fn)
}

// FlushQueue drops every frame this interface has queued at its
// transmitter but not yet begun serializing, releasing pooled payloads
// and counting the drops. It is the teardown half of a node crash: a
// dead gateway's queued frames die with it instead of leaking out of the
// buffer pool. The frame occupying the transmitter (if any) is already
// committed to the wire and is left to propagate. Returns the number of
// frames dropped.
func (n *NIC) FlushQueue() int {
	t := n.medium.tx(n)
	if t.qdisc == nil {
		return 0
	}
	// Filtered in place: on a shared transmitter the other stations'
	// frames keep their places, and no policy admits them a second time.
	return t.qdisc.filter(func(qf queuedFrame) bool {
		if qf.from != n {
			return true
		}
		// The medium-level drop counter keeps the conservation ledger
		// balanced: these frames were counted TxFrames when queued and
		// now die without being delivered.
		t.countDrop(n)
		qf.f.Release()
		return false
	})
}

// SetReceiver registers the function invoked, on the simulation goroutine,
// for each frame the medium delivers to this interface. The receiver takes
// ownership of the frame.
func (n *NIC) SetReceiver(fn func(Frame)) { n.recv = fn }

// Stats returns a copy of the interface counters.
func (n *NIC) Stats() Stats { return n.stats }

// Send transmits payload to the station dst on the NIC's medium, taking
// ownership of the payload (for pooled NICs it is released downstream —
// do not touch it after Send). Payloads longer than the medium MTU are a
// caller bug (the IP layer fragments first) and panic to surface the bug
// in tests.
func (n *NIC) Send(dst Addr, payload []byte) {
	if len(payload) > n.MTU() {
		panic(fmt.Sprintf("phys: %s: payload %d exceeds MTU %d", n.name, len(payload), n.MTU()))
	}
	f := Frame{Src: n.addr, Dst: dst, Payload: payload, pool: n.pool}
	if !n.up {
		n.stats.TxDrops++
		f.Release()
		return
	}
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(len(payload))
	n.medium.tx(n).enqueue(n, f)
}

// deliver hands a frame up to the stack if the interface is up.
func (n *NIC) deliver(f Frame) {
	if !n.up || n.recv == nil {
		if !n.up {
			n.stats.RxDown++
		} else {
			n.stats.RxNoRecv++
		}
		f.Release()
		return
	}
	n.stats.RxFrames++
	n.stats.RxBytes += uint64(len(f.Payload))
	n.recv(f)
}

// Medium is a network technology that NICs attach to.
type Medium interface {
	// Attach creates a new interface named name on the medium and
	// returns it. The medium assigns the link address.
	Attach(name string) *NIC
	// MTU returns the medium's maximum frame payload size.
	MTU() int
	// SetDown makes the whole medium lose every frame (true) or resume
	// carrying traffic (false) — the "loss of networks" fault from the
	// paper's survivability goal.
	SetDown(down bool)
	// Down reports whether the medium is currently cut.
	Down() bool
	// Loss returns the medium's current independent per-frame loss
	// probability.
	Loss() float64
	// SetLoss changes the per-frame loss probability — the transient
	// "loss storm" fault-injection primitive.
	SetLoss(p float64)
	// LostWhileDown returns how many frames the medium has swallowed
	// because it was down, for blackout-loss accounting.
	LostWhileDown() uint64

	// tx returns the transmitter that serves n's outgoing frames: one
	// per end of a point-to-point or cross-shard link, one shared by
	// every station of a bus.
	tx(n *NIC) *transmitter
}

// Config holds the transmission characteristics shared by all media.
type Config struct {
	// BitsPerSec is the serialization rate. Zero means infinitely fast.
	BitsPerSec int64
	// Delay is the one-way propagation delay.
	Delay sim.Duration
	// MTU is the maximum frame payload size in bytes.
	MTU int
	// Loss is the independent per-frame loss probability in [0,1).
	Loss float64
	// QueueLimit bounds the frames waiting for the transmitter; beyond
	// it frames are dropped (drop tail). Zero means DefaultQueueLimit.
	QueueLimit int
	// Jitter, if nonzero, adds a uniform random extra delay in [0,
	// Jitter) to each frame — the packet-radio store-and-forward
	// variance the paper's "variety of networks" goal contemplates.
	Jitter sim.Duration
}

// DefaultQueueLimit is the output queue bound used when Config.QueueLimit
// is zero.
const DefaultQueueLimit = 32

// serializeTime returns how long a frame of n payload bytes occupies the
// transmitter.
func (c *Config) serializeTime(n int) sim.Duration {
	if c.BitsPerSec <= 0 {
		return 0
	}
	bits := int64(n) * 8
	return sim.Duration(bits * int64(1e9) / c.BitsPerSec)
}

// transmitter serializes frames one at a time at the configured rate, with
// a queueing discipline holding the frames that wait. Each medium owns one
// transmitter per sending station (P2P) or one shared (bus).
//
// The transmitter schedules no closures: the serialization-done callback
// is bound once at construction (only one frame serializes at a time, so
// its state lives in cur), and propagation delays — several frames can be
// in flight at once — run through a free list of flight records whose
// callbacks are bound at first allocation and reused thereafter.
type transmitter struct {
	k           *sim.Kernel
	cfg         *Config
	qdisc       Qdisc
	busy        bool
	deliver     func(from *NIC, f Frame)
	drops       *uint64
	inFlight    uint64      // frames past serialization, propagation pending
	cur         queuedFrame // the frame occupying the transmitter
	serialized  func()      // prebound onSerialized
	freeFlights []*flight
}

func newTransmitter(k *sim.Kernel, cfg *Config, deliver func(from *NIC, f Frame), drops *uint64) *transmitter {
	t := &transmitter{k: k, cfg: cfg, deliver: deliver, drops: drops}
	t.serialized = t.onSerialized
	return t
}

// flight is one frame crossing the medium: serialization has finished and
// the propagation delay is running.
type flight struct {
	t    *transmitter
	from *NIC
	f    Frame
	fire func() // prebound run
}

func (t *transmitter) getFlight(from *NIC, f Frame) *flight {
	var fl *flight
	if n := len(t.freeFlights); n > 0 {
		fl = t.freeFlights[n-1]
		t.freeFlights[n-1] = nil
		t.freeFlights = t.freeFlights[:n-1]
	} else {
		fl = &flight{t: t}
		fl.fire = fl.run
	}
	fl.from, fl.f = from, f
	return fl
}

func (fl *flight) run() {
	t, from, f := fl.t, fl.from, fl.f
	fl.from, fl.f = nil, Frame{}
	t.freeFlights = append(t.freeFlights, fl)
	t.inFlight--
	t.deliver(from, f)
}

type queuedFrame struct {
	from *NIC
	f    Frame
}

func (t *transmitter) enqueue(from *NIC, f Frame) {
	if t.busy {
		if t.qdisc == nil {
			t.qdisc = NewPolicyQdisc(t.cfg.QueueLimit, PolicySpec{}, nil, nil)
		}
		if !t.qdisc.Enqueue(queuedFrame{from, f}) {
			t.countDrop(from)
			if from.onTxDrop != nil {
				from.onTxDrop(f.Payload)
			}
			f.Release()
		}
		return
	}
	t.start(from, f)
}

// countDrop books one of from's frames dying at this transmitter's queue.
func (t *transmitter) countDrop(from *NIC) {
	*t.drops++
	from.stats.TxDrops++
}

func (t *transmitter) start(from *NIC, f Frame) {
	t.busy = true
	t.cur = queuedFrame{from, f}
	t.k.After(t.cfg.serializeTime(len(f.Payload)), t.serialized)
}

// onSerialized runs when the current frame finishes serializing:
// propagation begins, and the next queued frame takes the transmitter.
func (t *transmitter) onSerialized() {
	qf := t.cur
	t.cur = queuedFrame{}
	t.busy = false
	d := t.cfg.Delay
	if t.cfg.Jitter > 0 {
		d += sim.Duration(t.k.Rand().Int63n(int64(t.cfg.Jitter)))
	}
	fl := t.getFlight(qf.from, qf.f)
	t.inFlight++
	t.k.After(d, fl.fire)
	if t.qdisc != nil {
		if next, ok := t.qdisc.Dequeue(); ok {
			t.start(next.from, next.f)
		}
	}
}

// QueueLen returns the number of frames waiting at the transmitter serving
// this interface, for tests and congestion diagnostics.
func (n *NIC) QueueLen() int {
	if q := n.medium.tx(n).qdisc; q != nil {
		return q.Len()
	}
	return 0
}
