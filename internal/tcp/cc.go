package tcp

import "sort"

// CCResponse is a host's congestion response: how the sender's window
// reacts to the signals the network can deliver — acknowledgement
// progress, duplicate ACKs, retransmission timeouts, ICMP source
// quench, and (post-RFC-3168) an ECN echo. The paper's architecture
// deliberately put this decision in the host, so it is a per-connection
// policy here, selected by Options.Congestion and searched by the
// E13-T tournament alongside the gateway queue policy.
//
// Implementations are stateless singletons: all window state lives in
// the Conn (cwnd, ssthresh, dupAcks, inFastRecovery), so a response
// can be shared by every connection without allocation.
type CCResponse interface {
	// OnConnect initializes the window state at connection creation.
	OnConnect(c *Conn)
	// OnAck runs when new data is acknowledged (acked bytes).
	OnAck(c *Conn, acked int)
	// OnDupAck runs on a pure duplicate ACK, after c.dupAcks has been
	// incremented.
	OnDupAck(c *Conn)
	// OnTimeout runs when the retransmission timer fires, before the
	// oldest segment is retransmitted.
	OnTimeout(c *Conn)
	// OnQuench runs when an honoured ICMP source quench arrives.
	OnQuench(c *Conn)
	// OnECE runs when the peer echoes a congestion-experienced mark
	// (at most once per window; the Conn enforces the gate).
	OnECE(c *Conn)
}

// Congestion response names accepted by Options.Congestion and
// CCByName.
const (
	CCNaive   = "naive"
	CCTahoe   = "tahoe"
	CCReno    = "reno"
	CCNewReno = "newreno"
)

var (
	naiveCC   CCResponse = ccNaive{}
	tahoeCC   CCResponse = ccTahoe{}
	renoCC    CCResponse = ccReno{}
	newRenoCC CCResponse = ccNewReno{}
)

// CCByName returns the named congestion response, or nil if unknown.
func CCByName(name string) CCResponse {
	switch name {
	case CCNaive:
		return naiveCC
	case CCTahoe:
		return tahoeCC
	case CCReno:
		return renoCC
	case CCNewReno:
		return newRenoCC
	}
	return nil
}

// CCNames lists the recognised congestion-response names, sorted.
func CCNames() []string {
	ns := []string{CCNaive, CCReno, CCTahoe, CCNewReno}
	sort.Strings(ns)
	return ns
}

// ccForOptions resolves a connection's response: the one
// Options.Congestion names, Reno by default.
func ccForOptions(o Options) CCResponse {
	if cc := CCByName(o.Congestion); cc != nil {
		return cc
	}
	return renoCC
}

// ccNaive is the pre-1988 host: no congestion window at all. The
// connection runs at the flow-control window whatever the network
// says — the behavior that made congestion collapse possible. Its
// "window" is pinned far above any advertisable flow-control window so
// the shared output path's min(cwnd, sndWnd) never binds.
type ccNaive struct{}

func (ccNaive) OnConnect(c *Conn) {
	c.cwnd = 1 << 30
	c.ssthresh = 1 << 30
}
func (ccNaive) OnAck(c *Conn, acked int) {}
func (ccNaive) OnDupAck(c *Conn)         {}
func (ccNaive) OnTimeout(c *Conn)        {}
func (ccNaive) OnQuench(c *Conn)         {}
func (ccNaive) OnECE(c *Conn)            {}

// ccVJ is the shared Van Jacobson core: slow start, congestion
// avoidance, and the timeout collapse to one segment.
type ccVJ struct{}

func (ccVJ) OnConnect(c *Conn) {
	c.cwnd = c.opts.MSS * 2
	c.ssthresh = 1 << 30
}

func (ccVJ) growOnAck(c *Conn, acked int) {
	if c.cwnd < c.ssthresh {
		c.cwnd += min(acked, c.opts.MSS) // slow start
	} else {
		c.cwnd += max(1, c.opts.MSS*c.opts.MSS/c.cwnd) // congestion avoidance
	}
	if c.cwnd > 1<<24 {
		c.cwnd = 1 << 24
	}
}

// halveSSThresh sets the slow-start threshold to half the data in
// flight, but never below two segments: every loss or congestion
// signal starts here.
func (c *Conn) halveSSThresh() {
	c.ssthresh = max(int(c.sndNxt-c.sndUna)/2, 2*c.opts.MSS)
}

func (ccVJ) OnTimeout(c *Conn) {
	// Collapse to one segment, halve the threshold.
	c.halveSSThresh()
	c.cwnd = c.mss()
	c.inFastRecovery = false
	c.dupAcks = 0
}

func (ccVJ) OnQuench(c *Conn) {
	c.halveSSThresh()
	c.cwnd = c.mss()
	c.inFastRecovery = false
}

// ccTahoe is the original 1988 machinery: slow start, congestion
// avoidance, and fast retransmit — but no fast recovery, so three
// duplicate ACKs collapse the window to one segment and slow-start
// again, exactly as a timeout does.
type ccTahoe struct{ ccVJ }

func (t ccTahoe) OnAck(c *Conn, acked int) {
	c.inFastRecovery = false
	t.growOnAck(c, acked)
}
func (t ccTahoe) OnDupAck(c *Conn) {
	if c.dupAcks == 3 {
		c.halveSSThresh()
		c.retransmitOldest()
		c.cwnd = c.mss()
		c.stats.FastRetransmits++
	}
}
func (ccTahoe) OnECE(c *Conn) {}

// ccReno adds fast recovery (halve, inflate by the dupacks, deflate on
// the recovery ACK) and the RFC 3168 ECN response: an echoed CE mark
// halves the window exactly as a fast retransmit would, but without
// retransmitting anything — the congestion signal arrived without a
// loss.
type ccReno struct{ ccVJ }

func (r ccReno) OnAck(c *Conn, acked int) {
	if c.inFastRecovery {
		// New data acked: leave fast recovery.
		c.cwnd = c.ssthresh
		c.inFastRecovery = false
		return
	}
	r.growOnAck(c, acked)
}
func (ccReno) OnDupAck(c *Conn) {
	switch {
	case c.dupAcks == 3:
		c.halveSSThresh()
		c.retransmitOldest()
		c.cwnd = c.ssthresh + 3*c.opts.MSS
		c.inFastRecovery = true
		c.stats.FastRetransmits++
	case c.dupAcks > 3 && c.inFastRecovery:
		c.cwnd += c.opts.MSS
		c.output()
	}
}
func (ccReno) OnECE(c *Conn) {
	c.halveSSThresh()
	c.cwnd = max(c.ssthresh, 2*c.opts.MSS)
	c.inFastRecovery = false
}

// ccNewReno refines Reno's fast recovery per RFC 6582: the recovery
// point (sndNxt when the fast retransmit fired) is remembered in
// c.frRecover, and an ACK that advances sndUna but stays below it — a
// partial ACK, the signature of multiple losses in one window — keeps
// the connection in recovery, retransmits the next hole immediately
// off the ACK clock, and deflates the window by the acked amount. Reno
// in the same situation exits recovery on the first partial ACK and
// must eat one retransmission timeout per additional lost segment.
type ccNewReno struct{ ccVJ }

func (nr ccNewReno) OnAck(c *Conn, acked int) {
	if c.inFastRecovery {
		if seqGEQ(c.sndUna, c.frRecover) {
			// Full ACK: the whole flight outstanding at the fast
			// retransmit is acked — recovery is complete.
			c.cwnd = c.ssthresh
			c.inFastRecovery = false
			return
		}
		// Partial ACK: the next hole is lost too. Retransmit it now,
		// deflate by the data this ACK covered, re-inflate by one MSS
		// (the hole's worth that left the network), and stay in
		// recovery until the whole flight is acked.
		c.retransmitOldest()
		c.cwnd -= acked
		if acked >= c.opts.MSS {
			c.cwnd += c.opts.MSS
		}
		if c.cwnd < c.mss() {
			c.cwnd = c.mss()
		}
		c.output()
		return
	}
	nr.growOnAck(c, acked)
}

func (ccNewReno) OnDupAck(c *Conn) {
	switch {
	case c.inFastRecovery:
		// Already recovering (the count restarts after each partial
		// ACK): every further dup ACK means a segment left the network,
		// so inflate and keep the ACK clock ticking. Crucially, do NOT
		// re-enter recovery — frRecover must keep its original value or
		// a burst of losses would never produce a full ACK (RFC 6582's
		// bugfix over Reno-with-a-memory).
		c.cwnd += c.opts.MSS
		c.output()
	case c.dupAcks == 3:
		c.halveSSThresh()
		c.frRecover = c.sndNxt
		c.retransmitOldest()
		c.cwnd = c.ssthresh + 3*c.opts.MSS
		c.inFastRecovery = true
		c.stats.FastRetransmits++
	}
}

func (ccNewReno) OnECE(c *Conn) {
	c.halveSSThresh()
	c.cwnd = max(c.ssthresh, 2*c.opts.MSS)
	c.inFastRecovery = false
}
