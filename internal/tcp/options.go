package tcp

import "darpanet/internal/sim"

// Options are per-connection policy knobs. The defaults model a
// well-behaved late-1980s TCP with the Van Jacobson congestion machinery
// on; experiments flip individual knobs to measure the design decisions
// the paper discusses.
type Options struct {
	// MSS is the maximum segment size offered to the peer. The default
	// is the classic 536 (576-byte datagram minus headers).
	MSS int
	// WindowSize is the receive buffer and therefore the largest window
	// advertised. Default 16384.
	WindowSize int
	// SendBufferSize bounds unsent+unacknowledged data held for the
	// application. Default 32768.
	SendBufferSize int
	// Congestion names the congestion-response policy (cc.go): CCNaive
	// — no slow start, congestion avoidance, fast retransmit or fast
	// recovery, the pre-1988 Internet of the paper's era (experiment
	// E10) — CCTahoe, CCReno or CCNewReno. Empty selects reno.
	Congestion string
	// ECN offers RFC 3168 explicit congestion notification on the SYN
	// exchange. When both ends agree, data segments carry ECT in the IP
	// TOS octet, gateway CE marks are echoed back with the ECE flag, and
	// the congestion response treats the echo as a loss-free congestion
	// signal (only reno responds).
	ECN bool
	// NoRepacketize forces retransmissions to repeat their original
	// packet boundaries, as a packet-sequenced protocol would. The zero
	// value lets retransmissions re-slice the byte stream into maximal
	// segments — the benefit of byte sequence numbers the paper calls
	// out (E9).
	NoRepacketize bool
	// NoNagle disables coalescing of small writes while data is in
	// flight.
	NoNagle bool
	// NoDelayedAck makes every ACK immediate.
	NoDelayedAck bool
	// FixedRTO, when nonzero, disables adaptive RTT estimation and uses
	// this constant retransmission timeout — the "naive host" of the
	// paper's host-attachment discussion (E6).
	FixedRTO sim.Duration
	// NoBackoff disables exponential backoff on retransmission — the
	// other half of the naive host.
	NoBackoff bool
	// GoBackN makes a timeout retransmit the entire outstanding window
	// rather than just the oldest segment — the brute-force recovery
	// many early, naive TCP implementations used, and the third
	// ingredient of experiment E6's network-hostile host.
	GoBackN bool
	// TOS is the IP type-of-service octet stamped on every segment.
	TOS uint8
	// ReactToSourceQuench makes the connection treat an ICMP source
	// quench as a congestion signal (collapse to one segment and slow
	// start), the pre-VJ congestion mechanism gateways could invoke.
	// Off by default, as history settled it.
	ReactToSourceQuench bool
}

// DefaultOptions returns the standard option set described above: the
// zero value of every boolean knob selects the well-behaved default.
func DefaultOptions() Options {
	return Options{
		MSS:            536,
		WindowSize:     16384,
		SendBufferSize: 32768,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MSS <= 0 {
		o.MSS = d.MSS
	}
	if o.WindowSize <= 0 {
		o.WindowSize = d.WindowSize
	}
	if o.WindowSize > 65535 {
		o.WindowSize = 65535 // no window scaling in this era
	}
	if o.SendBufferSize <= 0 {
		o.SendBufferSize = d.SendBufferSize
	}
	return o
}

// Timer constants (simulated time).
const (
	minRTO          = 200 * 1e6 // 200 ms
	maxRTO          = 60 * 1e9  // 60 s
	initialRTO      = 1 * 1e9   // 1 s (RFC 6298 spirit)
	delayedAckTime  = 200 * 1e6 // 200 ms
	defaultTimeWait = 60 * 1e9  // 2 * MSL with MSL = 30 s
	persistMin      = 500 * 1e6 // zero-window probe floor
	persistMax      = 60 * 1e9  // zero-window probe ceiling
)

// State is a TCP connection state, per RFC 793.
type State int

// The RFC 793 connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateClosing
	StateTimeWait
	StateCloseWait
	StateLastAck
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN-SENT", "SYN-RCVD", "ESTABLISHED",
	"FIN-WAIT-1", "FIN-WAIT-2", "CLOSING", "TIME-WAIT", "CLOSE-WAIT",
	"LAST-ACK",
}

// String names the state as RFC 793 does.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "UNKNOWN"
}

// Stats counts one connection's activity.
type Stats struct {
	BytesSent        uint64 // application bytes handed to the network (first transmission)
	BytesRetrans     uint64 // application bytes retransmitted
	BytesReceived    uint64 // in-order bytes delivered to the application
	SegsSent         uint64
	SegsReceived     uint64
	Retransmits      uint64 // timeout retransmissions
	FastRetransmits  uint64
	Timeouts         uint64 // RTO expirations
	DupAcksReceived  uint64
	SRTT             sim.Duration // smoothed round-trip estimate
	RTO              sim.Duration // current retransmission timeout
	ZeroWindowProbes uint64
	SourceQuenches   uint64 // quenches honoured (Options.ReactToSourceQuench)
	CEMarksSeen      uint64 // received segments carrying a gateway CE mark
	ECEsReceived     uint64 // ACKs echoing congestion back to this sender
	CWRsSent         uint64 // window reductions acknowledged to the peer
}
