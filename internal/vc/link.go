// Package vc implements the architecture the 1988 paper argues against: a
// virtual-circuit network in the X.25 mold, with per-connection state in
// every switch and hop-by-hop reliability on every link.
//
// It exists so the paper's central survivability claim can be measured
// rather than asserted. In this architecture the network itself promises
// in-order reliable delivery — which it can only do by remembering each
// conversation in each switch on the path. When a switch fails, that
// memory is gone and every circuit through it dies with a reset; the
// endpoints must re-dial and recover lost data themselves anyway. The
// datagram architecture (the rest of this repository) makes the opposite
// bet — fate-sharing — and experiment E1 compares the two under gateway
// failure.
package vc

import (
	"encoding/binary"
	"slices"

	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// Link-layer ARQ framing: ctl(1) seq(1) ack(1) + payload. The payload of
// an information frame is one circuit-layer message: type(1) vcid(2) +
// body.
const (
	ctlInfo = 1 // numbered information frame
	ctlRR   = 2 // receive-ready (pure ack)

	arqHeader = 3
	msgHeader = 3
)

const (
	arqWindow     = 8
	arqRexmitTime = 300 * 1e6 // 300 ms
	arqMaxRetries = 6
	arqQueueLimit = 256
)

// linkOwner is a switch or host that owns one end of a reliable link.
type linkOwner interface {
	// linkDeliver receives one in-order payload from the link.
	linkDeliver(l *linkEnd, payload []byte)
	// linkDead is called when the ARQ gives up: the link (or its far
	// end) is considered failed.
	linkDead(l *linkEnd)
}

// linkEnd is one end of a reliable (go-back-N) link: the hop-by-hop
// reliability X.25-era networks demanded of every segment of the path.
type linkEnd struct {
	k     *sim.Kernel
	nic   *phys.NIC
	owner linkOwner
	index int // owner's link index

	// Sender side.
	sndSeq  uint8    // next sequence number to assign
	sndUna  uint8    // oldest unacknowledged
	pending [][]byte // unacked frames, pending[0] has seq sndUna
	queue   [][]byte // built frames not yet transmitted (window full)
	timer   sim.Timer
	retries int
	dead    bool

	// timeoutFn is timeout, bound once so arming the timer allocates
	// nothing.
	timeoutFn func()

	// Receiver side.
	rcvSeq uint8 // next expected

	// Stats.
	framesSent, framesResent, framesDelivered uint64
}

func newLinkEnd(k *sim.Kernel, nic *phys.NIC, owner linkOwner, index int) *linkEnd {
	l := &linkEnd{k: k, nic: nic, owner: owner, index: index}
	l.timeoutFn = l.timeout
	nic.SetReceiver(l.input)
	return l
}

// send queues one circuit-layer message for reliable in-order delivery
// to the far end. The link frame is built here, once: ARQ header, circuit
// header and a copy of body in one buffer, so a relayed message costs a
// switch one allocation and body may be a slice of the frame it arrived
// in. seq and ack are left for transmit to stamp, since a frame may wait
// in queue for the window to open.
func (l *linkEnd) send(typ uint8, vcid uint16, body []byte) {
	if l.dead {
		return
	}
	windowFull := len(l.pending) >= arqWindow
	if windowFull && len(l.queue) >= arqQueueLimit {
		return
	}
	frame := make([]byte, arqHeader+msgHeader+len(body))
	frame[0] = ctlInfo
	frame[arqHeader] = typ
	binary.BigEndian.PutUint16(frame[arqHeader+1:], vcid)
	copy(frame[arqHeader+msgHeader:], body)
	if windowFull {
		l.queue = append(l.queue, frame)
		return
	}
	l.transmit(frame)
}

// transmit numbers a built frame, piggybacks the current ack and puts it
// on the wire for the first time.
func (l *linkEnd) transmit(frame []byte) {
	frame[1] = l.sndSeq
	frame[2] = l.rcvSeq
	l.sndSeq++
	l.pending = append(l.pending, frame)
	l.framesSent++
	l.nic.Send(phys.Broadcast, frame)
	l.armTimer()
}

func (l *linkEnd) armTimer() {
	if l.timer.Pending() {
		return
	}
	l.timer = l.k.After(sim.Duration(arqRexmitTime), l.timeoutFn)
}

func (l *linkEnd) timeout() {
	if len(l.pending) == 0 || l.dead {
		return
	}
	l.retries++
	if l.retries > arqMaxRetries {
		l.dead = true
		l.owner.linkDead(l)
		return
	}
	// Go-back-N: resend everything outstanding.
	for _, f := range l.pending {
		f[2] = l.rcvSeq
		l.framesResent++
		l.nic.Send(phys.Broadcast, f)
	}
	l.timer = l.k.After(sim.Duration(arqRexmitTime), l.timeoutFn)
}

// revive clears the dead flag after a restore (state is otherwise reset
// by the owner).
func (l *linkEnd) revive() {
	l.dead = false
	l.retries = 0
	l.pending = nil
	l.queue = nil
	l.sndSeq, l.sndUna, l.rcvSeq = 0, 0, 0
}

func (l *linkEnd) input(f phys.Frame) {
	if l.dead || len(f.Payload) < arqHeader {
		return
	}
	ctl, seq, ack := f.Payload[0], f.Payload[1], f.Payload[2]
	l.processAck(ack)
	if ctl != ctlInfo {
		return
	}
	if seq == l.rcvSeq {
		l.rcvSeq++
		l.framesDelivered++
		l.sendRR()
		l.owner.linkDeliver(l, f.Payload[arqHeader:])
	} else {
		// Out of order under go-back-N: discard and re-ack.
		l.sendRR()
	}
}

func (l *linkEnd) processAck(ack uint8) {
	// Slide the window: ack names the next frame the peer expects. Both
	// slices compact in place, so their storage outlives an empty window.
	n := 0
	for n < len(l.pending) && seq8LT(l.sndUna, ack) {
		n++
		l.sndUna++
		l.retries = 0
	}
	l.pending = slices.Delete(l.pending, 0, n)
	if len(l.pending) == 0 {
		l.timer.Stop()
	} else {
		l.armTimer()
	}
	// Window slid open: transmit queued frames.
	n = 0
	for n < len(l.queue) && len(l.pending) < arqWindow {
		l.transmit(l.queue[n])
		n++
	}
	l.queue = slices.Delete(l.queue, 0, n)
}

func (l *linkEnd) sendRR() {
	rr := []byte{ctlRR, 0, l.rcvSeq}
	l.nic.Send(phys.Broadcast, rr)
}

// seq8LT compares 8-bit sequence numbers modulo 256.
func seq8LT(a, b uint8) bool { return int8(a-b) < 0 }
