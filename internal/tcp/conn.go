package tcp

import (
	"slices"

	"darpanet/internal/icmp"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// Conn is one TCP connection endpoint (a TCB in RFC 793 terms). All the
// state that makes the conversation reliable lives here, in the host —
// the fate-sharing model: lose this host and the connection is gone, lose
// anything else and it survives.
//
// The API is event-driven to match the simulation kernel: register
// OnEstablished / OnData / OnEOF / OnClose callbacks, feed bytes with
// Write, and drive the kernel.
type Conn struct {
	t      *Transport
	k      *sim.Kernel
	opts   Options
	local  Endpoint
	remote Endpoint
	state  State

	acceptFn func(*Conn) // listener callback, fired on ESTABLISHED

	// Send sequence space (RFC 793 3.3).
	iss     uint32
	sndUna  uint32
	sndNxt  uint32
	sndWnd  int
	sndWl1  uint32 // seq of last window update
	sndWl2  uint32 // ack of last window update
	peerMSS int

	// The unacked + unsent bytes, starting at sndUna, are the sndLen
	// bytes of the ring sndStore from sndHead on: acks advance sndHead,
	// Write fills in behind the last queued byte, nothing moves in
	// between. The storage lives until the send side is finished: closed
	// and every byte acked (sndRelease).
	sndStore []byte
	sndHead  int
	sndLen   int

	finQueued bool // application closed the send side
	finSent   bool // FIN has occupied sequence space

	// Original transmission boundaries, recorded only under
	// Options.NoRepacketize (the ablation that repeats them).
	sentSegs []sentSeg

	// Receive sequence space.
	irs      uint32
	rcvNxt   uint32
	rcvAdv   uint32 // highest right window edge advertised (SWS avoidance)
	recvQ    []byte // received, in order, awaiting Read (manual read mode only)
	autoRead bool
	ooo      []oooSeg // held out-of-order segments, sorted by seq
	oooFree  [][]byte // drained ooo buffers awaiting reuse

	// Retransmission.
	rto         sim.Duration
	srtt        sim.Duration
	rttvar      sim.Duration
	backoff     int
	rtoRecover  uint32 // sndNxt at last timeout; backoff resets only past it
	rexmitTimer sim.Timer
	rttPending  bool
	rttSeq      uint32
	rttStart    sim.Time
	retransHit  bool // a retransmission happened since last sample (Karn)

	// Congestion control. The response policy is pluggable (cc.go); the
	// window state it drives lives here so responses stay stateless.
	cc             CCResponse
	cwnd           int
	ssthresh       int
	dupAcks        int
	inFastRecovery bool
	frRecover      uint32 // NewReno: sndNxt when fast recovery began; acks below it are partial

	// ECN (RFC 3168). ecnOK is set when the SYN exchange negotiated
	// marking; ecnEcho makes the receiver stamp ECE on outgoing ACKs
	// until the sender answers with CWR; cwrDue marks that answer
	// pending; ecnRecover is the once-per-window reduction gate (acks at
	// or below it carry echoes of congestion already responded to).
	ecnOK      bool
	ecnEcho    bool
	cwrDue     bool
	ecnRecover uint32

	// Delayed ACK.
	delackTimer sim.Timer
	ackPending  int // in-order segments since last ACK

	// Zero-window persistence.
	persistTimer sim.Timer
	persistIval  sim.Duration

	// TIME-WAIT / connection teardown.
	timeWaitTimer sim.Timer
	closeErr      error
	closeFired    bool

	// Timer callbacks, bound once at connection creation so re-arming a
	// timer schedules a prebound func instead of allocating a closure.
	rexmitFn     func()
	persistFn    func()
	delackFn     func()
	timeWaitFn   func()
	writeSpaceFn func()

	// Callbacks.
	onEstablished func()
	onData        func([]byte)
	onEOF         func()
	onClose       func(error)
	onWriteSpace  func()

	stats Stats
}

type sentSeg struct {
	seq uint32
	ln  int
}

type oooSeg struct {
	seq  uint32
	data []byte
}

func newConn(t *Transport, local, remote Endpoint, opts Options) *Conn {
	c := &Conn{
		t:        t,
		k:        t.k,
		opts:     opts,
		local:    local,
		remote:   remote,
		state:    StateClosed,
		peerMSS:  536,
		autoRead: true,
		rto:      sim.Duration(initialRTO),
		ssthresh: 1 << 30,
	}
	if opts.FixedRTO > 0 {
		c.rto = opts.FixedRTO
	}
	c.cc = ccForOptions(opts)
	c.cc.OnConnect(c)
	c.rexmitFn = c.rexmitTimeout
	c.persistFn = c.persistFire
	c.delackFn = c.delackFire
	c.timeWaitFn = c.timeWaitExpired
	c.writeSpaceFn = c.fireWriteSpace
	return c
}

// --- public API ---------------------------------------------------------

// OnEstablished registers fn to run once, when the handshake completes.
func (c *Conn) OnEstablished(fn func()) { c.onEstablished = fn }

// OnData registers fn to receive in-order stream data. With auto-read on
// (the default) delivered bytes are consumed immediately and the window
// stays open.
//
// The slice passed to fn is valid only until fn returns: it is a view of
// the arriving segment in storage the stack recycles, not a copy. A
// callback that keeps the bytes must copy them; passing them straight to
// Write (an echo) is fine, since Write copies.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// OnEOF registers fn to run when the peer closes its send side (FIN).
func (c *Conn) OnEOF(fn func()) { c.onEOF = fn }

// OnClose registers fn to run once when the connection is functionally
// over: cleanly (nil) or due to reset/timeout (an error).
func (c *Conn) OnClose(fn func(error)) { c.onClose = fn }

// OnWriteSpace registers fn to run whenever send-buffer space frees up.
func (c *Conn) OnWriteSpace(fn func()) { c.onWriteSpace = fn }

// SetAutoRead toggles automatic consumption of received data. With it
// off, data queues until Read is called and the advertised window closes
// as the buffer fills — the knob the flow-control tests and the
// zero-window experiments use.
func (c *Conn) SetAutoRead(auto bool) {
	c.autoRead = auto
	if auto {
		c.drainRecvQ()
	}
}

// Read consumes up to n bytes of received data (manual read mode),
// reopening the advertised window.
func (c *Conn) Read(n int) []byte {
	if n > len(c.recvQ) {
		n = len(c.recvQ)
	}
	out := c.recvQ[:n]
	c.recvQ = c.recvQ[n:]
	// Window may have reopened; let the peer know if it was shut.
	if n > 0 {
		c.sendACK()
	}
	return out
}

// Buffered returns the number of received bytes awaiting Read.
func (c *Conn) Buffered() int { return len(c.recvQ) }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// LocalEndpoint returns the connection's local address/port.
func (c *Conn) LocalEndpoint() Endpoint { return c.local }

// RemoteEndpoint returns the connection's remote address/port.
func (c *Conn) RemoteEndpoint() Endpoint { return c.remote }

// Stats returns a copy of the connection counters.
func (c *Conn) Stats() Stats {
	s := c.stats
	s.SRTT = c.srtt
	s.RTO = c.rto
	return s
}

// CongestionWindow returns the current congestion window in bytes.
func (c *Conn) CongestionWindow() int { return c.cwnd }

// Write appends data to the send buffer, returning how many bytes were
// accepted (possibly fewer than offered when the buffer is full).
func (c *Conn) Write(data []byte) (int, error) {
	if c.finQueued {
		return 0, ErrClosed
	}
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
	default:
		return 0, ErrNotEstablished
	}
	space := c.opts.SendBufferSize - c.sndLen
	if space <= 0 {
		return 0, nil
	}
	if len(data) > space {
		data = data[:space]
	}
	c.queueSend(data)
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.output()
	}
	return len(data), nil
}

// queueSend puts data behind the last queued byte; Write has already
// cut data to the free space. Storage grows with what the application
// actually keeps queued, never beyond SendBufferSize: a full buffer
// refilled one acknowledged segment at a time costs one copy per byte,
// however full it is.
func (c *Conn) queueSend(data []byte) {
	if need := c.sndLen + len(data); need > len(c.sndStore) {
		store := make([]byte, min(2*need, c.opts.SendBufferSize))
		a, b := c.sndSpan(0, c.sndLen)
		copy(store[copy(store, a):], b)
		c.sndStore, c.sndHead = store, 0
	}
	at := c.sndHead + c.sndLen
	if at >= len(c.sndStore) {
		at -= len(c.sndStore)
	}
	n := copy(c.sndStore[at:], data)
	copy(c.sndStore, data[n:])
	c.sndLen += len(data)
}

// sndSpan returns the n queued bytes that start off bytes past sndUna,
// in two pieces when they run across the end of the ring.
func (c *Conn) sndSpan(off, n int) (a, b []byte) {
	at := c.sndHead + off
	if at >= len(c.sndStore) {
		at -= len(c.sndStore)
	}
	if end := at + n; end > len(c.sndStore) {
		return c.sndStore[at:], c.sndStore[:end-len(c.sndStore)]
	}
	return c.sndStore[at : at+n], nil
}

// sndDrop releases the first n queued bytes: they have been acknowledged.
func (c *Conn) sndDrop(n int) {
	c.sndLen -= n
	c.sndHead += n
	if c.sndHead >= len(c.sndStore) {
		c.sndHead -= len(c.sndStore)
	}
	c.sndRelease()
}

// sndRelease gives back the ring once the send side is finished: Close
// has queued the FIN, so Write refuses more, and every byte is acked.
// An open connection whose ring drains keeps it for its next Write.
func (c *Conn) sndRelease() {
	if c.finQueued && c.sndLen == 0 {
		c.sndStore, c.sndHead = nil, 0
	}
}

// WriteSpace returns the free send-buffer space in bytes.
func (c *Conn) WriteSpace() int {
	if c.finQueued {
		return 0
	}
	return c.opts.SendBufferSize - c.sndLen
}

// Close closes the send side: remaining buffered data is delivered, then
// a FIN. Receiving continues until the peer closes.
func (c *Conn) Close() {
	if c.finQueued {
		return
	}
	switch c.state {
	case StateClosed, StateListen:
		c.teardown(ErrClosed)
	case StateSynSent:
		c.teardown(ErrClosed)
	case StateSynRcvd, StateEstablished:
		c.finQueued = true
		c.setState(StateFinWait1)
		c.output()
	case StateCloseWait:
		c.finQueued = true
		c.setState(StateLastAck)
		c.output()
	}
	c.sndRelease()
}

// Abort resets the connection immediately (RST to the peer, error to the
// local callbacks).
func (c *Conn) Abort() {
	switch c.state {
	case StateSynRcvd, StateEstablished, StateFinWait1, StateFinWait2, StateCloseWait:
		rst := segment{
			srcPort: c.local.Port, dstPort: c.remote.Port,
			seq: c.sndNxt, flags: flagRST,
		}
		c.transmit(&rst)
	}
	c.teardown(ErrClosed)
}

// --- open paths ----------------------------------------------------------

func (c *Conn) startActiveOpen() {
	c.iss = c.k.Rand().Uint32()
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.rtoRecover = c.iss
	c.ecnRecover = c.iss
	c.setState(StateSynSent)
	c.sendSYN(false)
	c.armRexmit()
}

func (c *Conn) startPassiveOpen(syn *segment) {
	c.irs = syn.seq
	c.rcvNxt = syn.seq + 1
	c.rcvAdv = c.rcvNxt + uint32(c.opts.WindowSize)
	if syn.mss >= 64 {
		c.peerMSS = int(syn.mss)
	}
	c.iss = c.k.Rand().Uint32()
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.rtoRecover = c.iss
	c.ecnRecover = c.iss
	// RFC 3168 negotiation: an ECN-setup SYN carries ECE|CWR; accept
	// only if our own options ask for marking too.
	c.ecnOK = c.opts.ECN && syn.flags&flagECE != 0 && syn.flags&flagCWR != 0
	c.sndWnd = int(syn.wnd)
	c.sndWl1, c.sndWl2 = syn.seq, 0
	c.setState(StateSynRcvd)
	c.sendSYN(true)
	c.armRexmit()
}

func (c *Conn) sendSYN(withACK bool) {
	s := segment{
		srcPort: c.local.Port, dstPort: c.remote.Port,
		seq: c.iss, flags: flagSYN,
		mss: uint16(c.opts.MSS),
		wnd: uint16(c.windowToAdvertise()),
	}
	if withACK {
		s.flags |= flagACK
		s.ack = c.rcvNxt
		if c.ecnOK {
			s.flags |= flagECE // ECN-setup SYN-ACK: ECE alone
		}
	} else if c.opts.ECN {
		s.flags |= flagECE | flagCWR // ECN-setup SYN
	}
	if c.sndNxt == c.iss {
		c.sndNxt = c.iss + 1
	}
	c.transmit(&s)
}

// --- segment arrival (RFC 793 pp.65-76) ----------------------------------

func (c *Conn) segmentArrives(seg *segment) {
	c.stats.SegsReceived++
	switch c.state {
	case StateClosed:
		return
	case StateSynSent:
		c.synSentInput(seg)
		return
	}

	// 1. Sequence acceptability.
	if !c.acceptable(seg) {
		if !seg.rst() {
			c.sendACK() // resynchronize the peer
		}
		return
	}
	c.trimToWindow(seg)

	// 2. RST.
	if seg.rst() {
		switch c.state {
		case StateSynRcvd:
			if c.acceptFn != nil { // passive open: silently return to nothing
				c.teardown(ErrRefused)
			} else {
				c.teardown(ErrReset)
			}
		default:
			c.teardown(ErrReset)
		}
		return
	}

	// 3. SYN in the window: fatal.
	if seg.syn() && seqGEQ(seg.seq, c.rcvNxt) {
		c.t.sendRST(c.local, c.remote, seg)
		c.teardown(ErrReset)
		return
	}

	// ECN receiver side (RFC 3168 §6.1): a CWR flag acknowledges our
	// echo and stops it; a CE mark on the datagram starts (or restarts)
	// echoing ECE on every outgoing ACK. CWR is processed first so a
	// segment that is both CWR-stamped and freshly CE-marked still
	// signals the new congestion event.
	if c.ecnOK {
		if seg.flags&flagCWR != 0 {
			c.ecnEcho = false
		}
		if seg.ce {
			c.stats.CEMarksSeen++
			c.ecnEcho = true
		}
	}

	// 4. ACK processing.
	if !seg.hasACK() {
		return
	}
	switch c.state {
	case StateSynRcvd:
		if seqLEQ(c.sndUna, seg.ack) && seqLEQ(seg.ack, c.sndNxt) {
			c.setState(StateEstablished)
			c.sndWnd = int(seg.wnd)
			c.sndWl1, c.sndWl2 = seg.seq, seg.ack
			c.processAck(seg)
			c.fireEstablished()
		} else {
			c.t.sendRST(c.local, c.remote, seg)
			return
		}
	case StateEstablished, StateFinWait1, StateFinWait2, StateCloseWait, StateClosing, StateLastAck:
		c.processAck(seg)
	case StateTimeWait:
		// Retransmitted FIN: re-ack and restart the 2MSL timer.
		c.sendACK()
		c.enterTimeWait()
		return
	}

	// State-specific consequences of our FIN being acked.
	finAcked := c.finSent && c.sndUna == c.sndNxt
	switch c.state {
	case StateFinWait1:
		if finAcked {
			c.setState(StateFinWait2)
		}
	case StateClosing:
		if finAcked {
			c.enterTimeWait()
		}
	case StateLastAck:
		if finAcked {
			c.teardown(nil)
			return
		}
	}

	// 5. Payload.
	if len(seg.payload) > 0 {
		switch c.state {
		case StateEstablished, StateFinWait1, StateFinWait2:
			c.receiveData(seg)
		}
	}

	// 6. FIN.
	if seg.fin() && seqLEQ(seg.seq+uint32(len(seg.payload)), c.rcvNxt) {
		c.processFIN()
	}

	// Send anything the ACK freed up.
	c.output()
}

// synSentInput handles arrivals in SYN-SENT (RFC 793 p.66).
func (c *Conn) synSentInput(seg *segment) {
	if seg.hasACK() {
		if seqLEQ(seg.ack, c.iss) || seqGT(seg.ack, c.sndNxt) {
			if !seg.rst() {
				c.t.sendRST(c.local, c.remote, seg)
			}
			return
		}
	}
	if seg.rst() {
		if seg.hasACK() {
			c.teardown(ErrRefused)
		}
		return
	}
	if !seg.syn() {
		return
	}
	// RFC 3168: an ECN-setup SYN-ACK carries ECE alone. (A simultaneous
	// open's SYN carries ECE|CWR and fails this test: negotiation simply
	// degrades to no marking.)
	c.ecnOK = c.opts.ECN && seg.flags&flagECE != 0 && seg.flags&flagCWR == 0
	c.irs = seg.seq
	c.rcvNxt = seg.seq + 1
	c.rcvAdv = c.rcvNxt + uint32(c.opts.WindowSize)
	if seg.mss >= 64 {
		c.peerMSS = int(seg.mss)
	}
	if seg.hasACK() {
		c.ackAdvance(seg.ack)
		c.sndWnd = int(seg.wnd)
		c.sndWl1, c.sndWl2 = seg.seq, seg.ack
	}
	if seqGT(c.sndUna, c.iss) { // our SYN is acked
		c.setState(StateEstablished)
		c.cancelRexmit()
		c.sendACK()
		c.fireEstablished()
		c.output()
	} else {
		// Simultaneous open.
		c.setState(StateSynRcvd)
		c.sendSYN(true)
	}
}

// acceptable implements the four-case window test of RFC 793 p.69.
func (c *Conn) acceptable(seg *segment) bool {
	segLen := seg.segLen()
	wnd := uint32(c.windowToAdvertise())
	switch {
	case segLen == 0 && wnd == 0:
		return seg.seq == c.rcvNxt
	case segLen == 0:
		return seqLEQ(c.rcvNxt, seg.seq) && seqLT(seg.seq, c.rcvNxt+wnd)
	case wnd == 0:
		return false
	default:
		endOK := seqLEQ(c.rcvNxt, seg.seq+uint32(segLen)-1) && seqLT(seg.seq+uint32(segLen)-1, c.rcvNxt+wnd)
		startOK := seqLEQ(c.rcvNxt, seg.seq) && seqLT(seg.seq, c.rcvNxt+wnd)
		return startOK || endOK
	}
}

// trimToWindow drops payload bytes below rcvNxt (already received).
func (c *Conn) trimToWindow(seg *segment) {
	if seqLT(seg.seq, c.rcvNxt) && len(seg.payload) > 0 {
		skip := c.rcvNxt - seg.seq
		if seg.syn() {
			skip-- // SYN occupied the first sequence slot
			seg.flags &^= flagSYN
		}
		if int(skip) >= len(seg.payload) {
			seg.payload = nil
		} else {
			seg.payload = seg.payload[skip:]
		}
		seg.seq = c.rcvNxt
	}
}

// --- ACK side -------------------------------------------------------------

// processAck handles acknowledgements, window updates, RTT sampling,
// congestion control and dupack counting.
func (c *Conn) processAck(seg *segment) {
	ack := seg.ack
	if seqGT(ack, c.sndNxt) {
		// Acks something not yet sent: ignore but re-ack.
		c.sendACK()
		return
	}
	// ECN sender side: the peer is echoing a CE mark. Respond at most
	// once per window — acks at or below ecnRecover echo congestion the
	// window already absorbed — then owe the peer a CWR.
	if c.ecnOK && seg.flags&flagECE != 0 {
		c.stats.ECEsReceived++
		if seqGT(ack, c.ecnRecover) {
			c.cc.OnECE(c)
			c.ecnRecover = c.sndNxt
			c.cwrDue = true
		}
	}
	if seqGT(ack, c.sndUna) {
		acked := int(ack - c.sndUna)
		c.ackAdvance(ack)
		c.rttSample(ack)
		// Backoff resets only once the whole flight outstanding at the
		// last timeout is acknowledged: collapsing it on the first
		// partial ACK — typical when a long blackout heals — re-arms the
		// timer at base RTO and bursts retransmissions at the
		// barely-healed link. Recovery of the rest of that flight rides
		// the ACK clock instead: each partial ACK retransmits the next
		// hole immediately, so keeping the timer backed off costs no
		// throughput.
		if seqGEQ(ack, c.rtoRecover) {
			c.backoff = 0
			c.rtoRecover = ack // keep in step; never a stale wrapped value
		} else {
			c.retransmitOldest()
		}
		c.dupAcks = 0
		c.cc.OnAck(c, acked)
		if c.sndUna == c.sndNxt {
			c.cancelRexmit()
		} else {
			c.armRexmit() // restart for remaining flight
		}
		if c.onWriteSpace != nil && c.WriteSpace() > 0 {
			c.k.Defer(c.writeSpaceFn)
		}
	} else if ack == c.sndUna && len(seg.payload) == 0 && !seg.syn() && !seg.fin() &&
		int(seg.wnd) == c.sndWnd && c.sndNxt != c.sndUna {
		// Pure duplicate ACK.
		c.stats.DupAcksReceived++
		c.dupAcks++
		c.cc.OnDupAck(c)
	}
	// Window update (RFC 793 p.72).
	if seqLT(c.sndWl1, seg.seq) || (c.sndWl1 == seg.seq && seqLEQ(c.sndWl2, ack)) {
		wasZero := c.sndWnd == 0
		c.sndWnd = int(seg.wnd)
		c.sndWl1, c.sndWl2 = seg.seq, ack
		if wasZero && c.sndWnd > 0 {
			c.cancelPersist()
		}
		if c.sndWnd == 0 && c.bytesUnsent() > 0 {
			c.armPersist()
		}
	}
}

// ackAdvance moves sndUna forward, trimming the send buffer and the
// recorded segment boundaries.
func (c *Conn) ackAdvance(ack uint32) {
	if seqLEQ(ack, c.sndUna) {
		return
	}
	dataAcked := int(ack - c.sndUna)
	// SYN and FIN occupy sequence space but not buffer space.
	if c.state == StateSynSent || c.state == StateSynRcvd || (c.sndUna == c.iss && dataAcked > 0) {
		dataAcked-- // the SYN
	}
	if c.finSent && ack == c.sndNxt {
		dataAcked-- // the FIN
	}
	if dataAcked > c.sndLen {
		dataAcked = c.sndLen
	}
	if dataAcked > 0 {
		c.sndDrop(dataAcked)
	}
	c.sndUna = ack
	// Prune fully acked original-boundary records.
	i := 0
	for ; i < len(c.sentSegs); i++ {
		if seqGT(c.sentSegs[i].seq+uint32(c.sentSegs[i].ln), ack) {
			break
		}
	}
	c.sentSegs = c.sentSegs[:copy(c.sentSegs, c.sentSegs[i:])]
}

// rttSample takes a Karn-compliant RTT measurement.
func (c *Conn) rttSample(ack uint32) {
	if !c.rttPending || seqLT(ack, c.rttSeq) || c.retransHit {
		if c.retransHit && c.rttPending && seqGEQ(ack, c.rttSeq) {
			c.rttPending = false
			c.retransHit = false
		}
		return
	}
	rtt := c.k.Now().Sub(c.rttStart)
	c.rttPending = false
	if c.opts.FixedRTO > 0 {
		return // naive host: no adaptation
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := rtt - c.srtt
		if d < 0 {
			d = -d
		}
		c.rttvar += (d - c.rttvar) / 4
		c.srtt += (rtt - c.srtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	c.clampRTO()
}

func (c *Conn) clampRTO() {
	if c.rto < sim.Duration(minRTO) {
		c.rto = sim.Duration(minRTO)
	}
	if c.rto > sim.Duration(maxRTO) {
		c.rto = sim.Duration(maxRTO)
	}
}

// --- receive side -----------------------------------------------------------

func (c *Conn) receiveData(seg *segment) {
	if seg.seq == c.rcvNxt {
		c.admitInOrder(seg.payload)
		// Pull any contiguous out-of-order segments through.
		c.drainOOO()
		c.ackPending++
		if !c.opts.NoDelayedAck && c.ackPending < 2 && len(c.ooo) == 0 && !c.finQueued {
			c.armDelack()
		} else {
			c.sendACK()
		}
	} else if seqGT(seg.seq, c.rcvNxt) {
		c.insertOOO(seg.seq, seg.payload)
		c.sendACK() // duplicate ACK signals the hole
	}
}

func (c *Conn) admitInOrder(data []byte) {
	if len(data) == 0 {
		return
	}
	// Respect the advertised window strictly: never buffer beyond it.
	free := c.opts.WindowSize - len(c.recvQ)
	if len(data) > free {
		data = data[:free]
	}
	if len(data) == 0 {
		return
	}
	c.rcvNxt += uint32(len(data))
	c.stats.BytesReceived += uint64(len(data))
	if c.autoRead {
		// recvQ is empty whenever auto-read is on (SetAutoRead drains
		// it), so the segment's own bytes go straight to the application.
		if c.onData != nil {
			c.onData(data)
		}
		return
	}
	c.recvQ = append(c.recvQ, data...)
}

func (c *Conn) drainRecvQ() {
	if len(c.recvQ) == 0 {
		return
	}
	data := c.recvQ
	c.recvQ = nil
	if c.onData != nil {
		c.onData(data)
	}
}

func (c *Conn) insertOOO(seq uint32, data []byte) {
	if len(data) == 0 {
		return
	}
	// Bound out-of-order hoarding to one window.
	if seqGT(seq+uint32(len(data)), c.rcvNxt+uint32(c.opts.WindowSize)) {
		return
	}
	// Insert sorted. Partial overlap is tolerated by keeping both and
	// trimming at drain time, but a segment some held one already covers
	// whole adds nothing and is not stored: a go-back-N peer resending
	// its window over and over cannot grow the list.
	end := seq + uint32(len(data))
	at := len(c.ooo)
	for i, s := range c.ooo {
		if seqLT(seq, s.seq) {
			at = i
			break
		}
		if seqLEQ(end, s.seq+uint32(len(s.data))) {
			return
		}
	}
	var cp []byte
	if n := len(c.oooFree); n > 0 {
		cp, c.oooFree[n-1] = c.oooFree[n-1], nil
		c.oooFree = c.oooFree[:n-1]
	}
	if cap(cp) < len(data) {
		cp = make([]byte, max(len(data), c.opts.MSS))
	}
	cp = cp[:len(data)]
	copy(cp, data)
	c.ooo = slices.Insert(c.ooo, at, oooSeg{seq: seq, data: cp})
}

// drainOOO admits every held segment the advancing rcvNxt has reached and
// retires its buffer for reuse.
func (c *Conn) drainOOO() {
	n := 0
	for ; n < len(c.ooo); n++ {
		s := c.ooo[n]
		if seqGT(s.seq, c.rcvNxt) {
			break // hole remains
		}
		if end := s.seq + uint32(len(s.data)); seqGT(end, c.rcvNxt) {
			c.admitInOrder(s.data[c.rcvNxt-s.seq:])
		}
		c.oooFree = append(c.oooFree, s.data)
	}
	if n > 0 {
		rest := copy(c.ooo, c.ooo[n:])
		clear(c.ooo[rest:])
		c.ooo = c.ooo[:rest]
	}
}

func (c *Conn) processFIN() {
	switch c.state {
	case StateEstablished, StateSynRcvd:
		c.rcvNxt++
		c.sendACK()
		c.setState(StateCloseWait)
		if c.onEOF != nil {
			c.onEOF()
		}
	case StateFinWait1:
		c.rcvNxt++
		c.sendACK()
		if c.finSent && c.sndUna == c.sndNxt {
			c.enterTimeWait()
		} else {
			c.setState(StateClosing)
		}
		if c.onEOF != nil {
			c.onEOF()
		}
	case StateFinWait2:
		c.rcvNxt++
		c.sendACK()
		c.enterTimeWait()
		if c.onEOF != nil {
			c.onEOF()
		}
	}
}

// --- teardown ----------------------------------------------------------------

func (c *Conn) enterTimeWait() {
	c.setState(StateTimeWait)
	c.cancelRexmit()
	c.cancelPersist()
	c.cancelDelack()
	c.timeWaitTimer.Stop()
	c.fireClose(nil)
	c.timeWaitTimer = c.k.After(defaultTimeWait, c.timeWaitFn)
}

func (c *Conn) timeWaitExpired() {
	c.setState(StateClosed)
	c.t.remove(c)
}

// fireWriteSpace is the deferred write-space notification; it rechecks at
// fire time since the buffer may have refilled meanwhile.
func (c *Conn) fireWriteSpace() {
	if c.onWriteSpace != nil && c.WriteSpace() > 0 {
		c.onWriteSpace()
	}
}

// teardown closes immediately with the given reason (nil for clean).
func (c *Conn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	c.setState(StateClosed)
	c.cancelRexmit()
	c.cancelPersist()
	c.cancelDelack()
	c.timeWaitTimer.Stop()
	c.t.remove(c)
	c.fireClose(err)
}

func (c *Conn) fireClose(err error) {
	if c.closeFired {
		return
	}
	c.closeFired = true
	c.closeErr = err
	if c.onClose != nil {
		c.onClose(err)
	}
}

func (c *Conn) fireEstablished() {
	if c.acceptFn != nil {
		fn := c.acceptFn
		c.acceptFn = nil
		fn(c)
	}
	// The callback runs once; clearing it first frees what it captured.
	if fn := c.onEstablished; fn != nil {
		c.onEstablished = nil
		fn()
	}
}

func (c *Conn) setState(s State) { c.state = s }

// icmpError lets the network's error channel influence the connection:
// hard unreachables abort a connection attempt early, and (optionally) a
// source quench triggers the pre-VJ congestion response. The transport
// has matched the quoted datagram's addresses and ports to c.
func (c *Conn) icmpError(e stack.IcmpError) {
	if e.Type == icmp.TypeSourceQuench {
		if c.opts.ReactToSourceQuench && c.state == StateEstablished {
			c.cc.OnQuench(c)
			c.stats.SourceQuenches++
		}
		return
	}
	if c.state == StateSynSent {
		c.teardown(ErrUnreachable)
	}
}
