package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/nvp"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
)

// Profile is one of the engine's application behaviors.
type Profile int

// The four application profiles: the paper's spread of service types,
// each exercising a different corner of the stack.
const (
	Bulk        Profile = iota // one-way TCP transfer of a Pareto-sampled size
	Interactive                // telnet-like keystroke echo over TCP
	RR                         // UDP request/response transactions
	Voice                      // NVP constant-rate stream with playout deadline
)

var profileNames = [...]string{"bulk", "interactive", "rr", "voice"}

// String names the profile.
func (p Profile) String() string { return profileNames[p] }

// Flow is one generated session and its measured outcome. Fields are
// updated live as the flow progresses; read them after the kernel run.
type Flow struct {
	ID      int
	Profile Profile
	Src     string
	Dst     string
	// Size is the offered application byte count: the transfer size
	// (bulk), keystrokes+echoes (interactive), expected response bytes
	// (rr), or the voice stream's payload budget.
	Size  int
	Start sim.Time
	// Established reports the transport-level session came up (TCP
	// handshake completed; always true for UDP/NVP flows).
	Established bool
	// Done reports the flow completed its application exchange; End is
	// when. A flow that never completes keeps Done false — under
	// congestion collapse, many do.
	Done bool
	End  sim.Time
	// BytesRx counts application bytes delivered to the receiving side
	// (for voice: bytes that made their playout deadline).
	BytesRx int
	// Retrans counts TCP retransmitted segments attributed to this flow
	// (timeout plus fast retransmits; zero for UDP and voice flows).
	Retrans uint64
	// OnTime/Late/Lost carry the voice receiver's verdict (Voice only).
	OnTime, Late, Lost uint64

	conn        *tcp.Conn
	lastRetrans uint64
	// bins holds per-bin retransmission counts sampled by the engine's
	// bin ticker; binBase is the global bin index of bins[0].
	bins    []uint32
	binBase int
	// interactive state
	keysLeft int
	keyTimer sim.Timer
	keyFn    func()
	// rr state
	txnsLeft int
	gotResps int
	rrSock   *udp.Socket
	rrTimer  sim.Timer
	rrFn     func()
}

// FCT returns the flow completion time (0 if the flow never completed).
func (f *Flow) FCT() sim.Duration {
	if !f.Done {
		return 0
	}
	return f.End.Sub(f.Start)
}

// Tunables the profiles share. They are constants, not Spec knobs: the
// Spec's job is to shape load and era, not to re-parameterize telnet.
const (
	// BinWidth is the retransmission-sampling bin used for the RTO
	// synchronization measurement.
	BinWidth = 200 * time.Millisecond
	// BinGrace extends bin sampling past the admission window so the
	// retransmission tail of late flows is still observed.
	BinGrace = 30 * time.Second

	rrPort        = 19000 // well-known UDP responder port
	rrReqBytes    = 64
	rrRespBytes   = 512
	rrTxns        = 8
	rrInterval    = 250 * time.Millisecond
	keystrokeSize = 1
	voiceMeanDur  = 4 * time.Second
	voiceMinDur   = 1 * time.Second
	voiceMaxDur   = 12 * time.Second
)

// Engine generates flows against a live network. Create with New, Arm
// before running the kernel, then read Flows/Summarize afterwards.
//
// Determinism: the engine draws every random decision (arrival times,
// profile choice, endpoints, sizes) from its own rand.Rand seeded at
// New, never from the kernel's; a given (Spec, seed, host list)
// produces the identical flow sequence regardless of what else runs.
//
// Allocation: the recurring closures (session arrival, on/off toggling,
// the retransmission bin ticker) are bound once at Arm. Starting a flow
// allocates — a new conversation is new state, that is fate-sharing —
// but between engine events an armed engine adds nothing to the
// forwarding hot path, and the bin ticker itself is allocation-free
// (preallocated per-flow bins, prebound re-arm).
type Engine struct {
	nw    *core.Network
	k     *sim.Kernel
	spec  Spec
	rng   *rand.Rand
	hosts []string

	sizes   BoundedPareto
	arrival Exponential

	flows     []*Flow
	activeTCP []*Flow // flows the bin ticker samples

	armed      bool
	admitUntil sim.Time
	binsUntil  sim.Time
	binStart   sim.Time
	ticksDone  int
	on         bool // on/off modulation state (always true without OnOff)

	arriveFn func()
	binFn    func()
	toggleFn func()

	muxes      map[string]*nvp.Mux
	responders map[string]*udp.Socket
	nextPort   map[string]uint16

	pattern []byte // shared bulk payload chunk
	keyBuf  []byte // shared keystroke byte
	reqBuf  []byte // shared rr request
	respBuf []byte // shared rr response

	// Counters, registered with the kernel's metrics registry at New.
	ctrStarted     uint64
	ctrEstablished uint64
	ctrCompleted   uint64
	ctrFailed      uint64
	ctrOffered     uint64
	ctrDelivered   uint64
}

// New creates an engine over the named hosts (at least two) of nw.
// Counters register immediately under workload/engine/ in the kernel's
// metrics registry.
func New(nw *core.Network, hosts []string, spec Spec, seed int64) *Engine {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	if len(hosts) < 2 {
		panic("workload: need at least two hosts")
	}
	e := &Engine{
		nw:         nw,
		k:          nw.Kernel(),
		spec:       spec,
		rng:        rand.New(rand.NewSource(seed)),
		hosts:      append([]string(nil), hosts...),
		sizes:      BoundedPareto{Alpha: spec.Alpha, Min: float64(spec.MinBytes), Max: float64(spec.MaxBytes)},
		arrival:    Exponential{Mean: sim.Duration(float64(time.Second) / spec.Rate)},
		muxes:      make(map[string]*nvp.Mux),
		responders: make(map[string]*udp.Socket),
		nextPort:   make(map[string]uint16),
		pattern:    make([]byte, 16384),
		keyBuf:     []byte{'.'},
		reqBuf:     make([]byte, rrReqBytes),
		respBuf:    make([]byte, rrRespBytes),
		on:         true,
	}
	for i := range e.pattern {
		e.pattern[i] = byte(i*7 + i>>9)
	}
	e.arriveFn = e.arrive
	e.binFn = e.binTick
	e.toggleFn = e.toggle
	reg := metrics.For(e.k)
	reg.Counter("workload", "engine", "flows_started", &e.ctrStarted)
	reg.Counter("workload", "engine", "flows_established", &e.ctrEstablished)
	reg.Counter("workload", "engine", "flows_completed", &e.ctrCompleted)
	reg.Counter("workload", "engine", "flows_failed", &e.ctrFailed)
	reg.Counter("workload", "engine", "bytes_offered", &e.ctrOffered)
	reg.Counter("workload", "engine", "bytes_delivered", &e.ctrDelivered)
	return e
}

// Spec returns the engine's traffic spec.
func (e *Engine) Spec() Spec { return e.spec }

// Flows returns the admitted flows in admission order (live view).
func (e *Engine) Flows() []*Flow { return e.flows }

// Arm starts the session process: flows are admitted for the given
// window, and retransmission bins are sampled for window+BinGrace. All
// recurring closures are bound here or at New — an armed engine
// schedules only prebound functions.
func (e *Engine) Arm(window sim.Duration) {
	if e.armed {
		panic("workload: engine already armed")
	}
	e.armed = true
	now := e.k.Now()
	e.admitUntil = now.Add(window)
	e.binsUntil = now.Add(window + BinGrace)
	e.binStart = now
	if e.spec.OnOff {
		e.k.After(Exponential{Mean: e.spec.OnMean}.Sample(e.rng), e.toggleFn)
	}
	e.k.After(e.arrival.Sample(e.rng), e.arriveFn)
	e.k.After(BinWidth, e.binFn)
}

// toggle flips the on/off modulation state and re-arms itself.
func (e *Engine) toggle() {
	if e.k.Now() >= e.admitUntil {
		return
	}
	e.on = !e.on
	mean := e.spec.OnMean
	if !e.on {
		mean = e.spec.OffMean
	}
	e.k.After(Exponential{Mean: mean}.Sample(e.rng), e.toggleFn)
}

// arrive admits one flow (if inside the admission window and an
// on-period) and re-arms the next arrival.
func (e *Engine) arrive() {
	if e.k.Now() >= e.admitUntil {
		return
	}
	if e.on {
		e.startFlow()
	}
	e.k.After(e.arrival.Sample(e.rng), e.arriveFn)
}

// binTick samples every active TCP flow's cumulative retransmission
// counter into its per-flow bin array, then re-arms. No allocation:
// bins were sized at flow start, the closure is prebound.
func (e *Engine) binTick() {
	e.ticksDone++
	for _, f := range e.activeTCP {
		st := f.conn.Stats()
		cum := st.Retransmits + st.FastRetransmits
		d := cum - f.lastRetrans
		f.lastRetrans = cum
		if len(f.bins) < cap(f.bins) {
			f.bins = append(f.bins, uint32(d))
		}
	}
	if e.k.Now() < e.binsUntil {
		e.k.After(BinWidth, e.binFn)
	}
}

// remainingBins returns how many bin ticks are still to come, for
// sizing a new flow's bin array.
func (e *Engine) remainingBins() int {
	n := int((e.binsUntil.Sub(e.k.Now()))/BinWidth) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// pickPair draws distinct src and dst hosts.
func (e *Engine) pickPair() (string, string) {
	a := e.rng.Intn(len(e.hosts))
	b := e.rng.Intn(len(e.hosts) - 1)
	if b >= a {
		b++
	}
	return e.hosts[a], e.hosts[b]
}

// pickProfile draws a profile by spec weight.
func (e *Engine) pickProfile() Profile {
	s := e.spec
	u := e.rng.Float64() * (s.Bulk + s.Interactive + s.RR + s.Voice)
	switch {
	case u < s.Bulk:
		return Bulk
	case u < s.Bulk+s.Interactive:
		return Interactive
	case u < s.Bulk+s.Interactive+s.RR:
		return RR
	default:
		return Voice
	}
}

// port allocates the next listener port on dst.
func (e *Engine) port(dst string) uint16 {
	p := e.nextPort[dst]
	if p == 0 {
		p = 20001
	}
	e.nextPort[dst] = p + 1
	return p
}

// tcpOpts maps the spec's era knobs to TCP options.
func (e *Engine) tcpOpts() tcp.Options {
	// An explicit congestion-response name overrides the era's default
	// (VJ→reno, pre-VJ→naive); recovery style still follows the era.
	opts := tcp.Options{SendBufferSize: 32768, Congestion: e.spec.CC, ECN: e.spec.ECN}
	if !e.spec.VJ {
		opts.GoBackN = true
		if opts.Congestion == "" {
			opts.Congestion = tcp.CCNaive
		}
	}
	if e.spec.NaiveRTO {
		// 300ms sits below the RTT of a loaded multi-hop T1 path (a full
		// 64-frame queue adds ~180ms per hop), which is the collapse
		// trigger: the naive timer re-injects whole go-back-N windows
		// for data still queued ahead of it, not lost.
		opts.FixedRTO = 300 * time.Millisecond
		opts.NoBackoff = true
	}
	return opts
}

// startFlow admits one flow: draw profile, endpoints and size, open the
// real connection, and bind its completion accounting.
func (e *Engine) startFlow() {
	src, dst := e.pickPair()
	f := &Flow{
		ID:      len(e.flows),
		Profile: e.pickProfile(),
		Src:     src,
		Dst:     dst,
		Start:   e.k.Now(),
	}
	e.flows = append(e.flows, f)
	e.ctrStarted++
	switch f.Profile {
	case Bulk:
		e.startBulk(f)
	case Interactive:
		e.startInteractive(f)
	case RR:
		e.startRR(f)
	case Voice:
		e.startVoice(f)
	}
	e.ctrOffered += uint64(f.Size)
}

// finishTCP closes out a TCP-backed flow: final retransmission count,
// bin-ticker removal, completion accounting.
func (e *Engine) finishTCP(f *Flow) {
	if f.Done {
		return
	}
	f.Done = true
	f.End = e.k.Now()
	e.ctrCompleted++
	e.stopSampling(f)
}

// stopSampling takes the flow's final retransmission reading and
// removes it from the bin ticker's active set.
func (e *Engine) stopSampling(f *Flow) {
	if f.conn != nil {
		st := f.conn.Stats()
		f.Retrans = st.Retransmits + st.FastRetransmits
		cum := f.Retrans
		if d := cum - f.lastRetrans; d > 0 && len(f.bins) < cap(f.bins) {
			f.bins = append(f.bins, uint32(d))
		}
		f.lastRetrans = cum
	}
	for i, g := range e.activeTCP {
		if g == f {
			last := len(e.activeTCP) - 1
			e.activeTCP[i] = e.activeTCP[last]
			e.activeTCP[last] = nil
			e.activeTCP = e.activeTCP[:last]
			return
		}
	}
}

// trackTCP registers a dialled connection with the bin ticker.
func (e *Engine) trackTCP(f *Flow, c *tcp.Conn) {
	f.conn = c
	f.bins = make([]uint32, 0, e.remainingBins())
	f.binBase = e.ticksDone
	e.activeTCP = append(e.activeTCP, f)
}

// startBulk opens a one-way transfer src → dst of a Pareto-sampled
// size. The writer streams a shared pattern chunk; the receiving side
// counts delivery and completion.
func (e *Engine) startBulk(f *Flow) {
	f.Size = int(e.sizes.Sample(e.rng))
	port := e.port(f.Dst)
	opts := e.tcpOpts()
	var lst *tcp.Listener
	var srv *tcp.Conn
	lst, err := e.nw.TCP(f.Dst).Listen(port, opts, func(c *tcp.Conn) {
		srv = c
		c.OnData(func(b []byte) {
			f.BytesRx += len(b)
			e.ctrDelivered += uint64(len(b))
			if f.BytesRx >= f.Size {
				e.finishTCP(f)
				lst.Close()
				c.Close()
			}
		})
	})
	if err != nil {
		e.fail(f)
		return
	}
	conn, err := e.nw.TCP(f.Src).Dial(tcp.Endpoint{Addr: e.nw.Addr(f.Dst), Port: port}, opts)
	if err != nil {
		lst.Close()
		e.fail(f)
		return
	}
	e.trackTCP(f, conn)
	remaining := f.Size
	write := func() {
		for remaining > 0 {
			chunk := e.pattern
			if remaining < len(chunk) {
				chunk = chunk[:remaining]
			}
			n, err := conn.Write(chunk)
			if err != nil || n == 0 {
				return
			}
			remaining -= n
		}
		conn.Close()
	}
	conn.OnWriteSpace(write)
	conn.OnEstablished(func() {
		f.Established = true
		e.ctrEstablished++
		write()
	})
	conn.OnClose(func(err error) {
		if err != nil && !f.Done {
			e.fail(f)
		}
		_ = srv
	})
}

// startInteractive opens a telnet-like session: keystrokes every Think
// interval, echoed by the far side; the flow completes when every echo
// is back.
func (e *Engine) startInteractive(f *Flow) {
	// Map the sampled size onto a keystroke count so session lengths
	// are heavy-tailed too, bounded to keep sessions inside the run.
	keys := int(e.sizes.Sample(e.rng)) / 1024
	if keys < 4 {
		keys = 4
	}
	if keys > 120 {
		keys = 120
	}
	f.Size = 2 * keys * keystrokeSize // keystrokes + echoes
	f.keysLeft = keys
	port := e.port(f.Dst)
	opts := e.tcpOpts()
	opts.NoDelayedAck = true
	var lst *tcp.Listener
	lst, err := e.nw.TCP(f.Dst).Listen(port, opts, func(c *tcp.Conn) {
		c.OnData(func(b []byte) {
			f.BytesRx += len(b)
			e.ctrDelivered += uint64(len(b))
			c.Write(b) // echo
		})
		c.OnEOF(func() { c.Close() })
	})
	if err != nil {
		e.fail(f)
		return
	}
	conn, err := e.nw.TCP(f.Src).Dial(tcp.Endpoint{Addr: e.nw.Addr(f.Dst), Port: port}, opts)
	if err != nil {
		lst.Close()
		e.fail(f)
		return
	}
	e.trackTCP(f, conn)
	echoes := 0
	f.keyFn = func() {
		if f.Done {
			return
		}
		if f.keysLeft > 0 {
			if n, err := conn.Write(e.keyBuf); err == nil && n > 0 {
				f.keysLeft--
			}
		}
		if f.keysLeft > 0 {
			f.keyTimer = e.k.After(e.spec.Think, f.keyFn)
		}
	}
	conn.OnData(func(b []byte) {
		f.BytesRx += len(b)
		e.ctrDelivered += uint64(len(b))
		echoes += len(b)
		if echoes >= keys*keystrokeSize && f.keysLeft == 0 {
			e.finishTCP(f)
			lst.Close()
			conn.Close()
		}
	})
	conn.OnEstablished(func() {
		f.Established = true
		e.ctrEstablished++
		f.keyTimer = e.k.After(e.spec.Think, f.keyFn)
	})
	conn.OnClose(func(err error) {
		f.keyTimer.Stop()
		if err != nil && !f.Done {
			e.fail(f)
		}
	})
}

// responder lazily starts the shared UDP request/response server on a
// node: every request is answered with an rrRespBytes payload echoing
// the request's transaction tag.
func (e *Engine) responder(node string) {
	if _, ok := e.responders[node]; ok {
		return
	}
	var sock *udp.Socket
	sock, err := e.nw.UDP(node).Listen(rrPort, func(from udp.Endpoint, data []byte, _ ipv4.Header) {
		if len(data) >= 2 {
			e.respBuf[0], e.respBuf[1] = data[0], data[1]
		}
		sock.SendTo(from, e.respBuf)
	})
	if err != nil {
		panic(fmt.Sprintf("workload: rr responder on %s: %v", node, err))
	}
	e.responders[node] = sock
}

// startRR drives rrTxns UDP request/response transactions. UDP offers
// no retransmission, so a lost request or response simply leaves the
// flow incomplete — the datagram honesty the profile exists to measure.
func (e *Engine) startRR(f *Flow) {
	e.responder(f.Dst)
	f.Size = rrTxns * rrRespBytes
	f.txnsLeft = rrTxns
	f.Established = true
	e.ctrEstablished++
	sock, err := e.nw.UDP(f.Src).Listen(0, func(_ udp.Endpoint, data []byte, _ ipv4.Header) {
		f.BytesRx += len(data)
		e.ctrDelivered += uint64(len(data))
		f.gotResps++
		if f.gotResps >= rrTxns && !f.Done {
			f.Done = true
			f.End = e.k.Now()
			e.ctrCompleted++
			f.rrSock.Close()
		}
	})
	if err != nil {
		e.fail(f)
		return
	}
	f.rrSock = sock
	dst := udp.Endpoint{Addr: e.nw.Addr(f.Dst), Port: rrPort}
	seq := 0
	f.rrFn = func() {
		if f.Done || f.txnsLeft == 0 {
			return
		}
		f.txnsLeft--
		e.reqBuf[0], e.reqBuf[1] = byte(f.ID), byte(seq)
		seq++
		sock.SendTo(dst, e.reqBuf)
		if f.txnsLeft > 0 {
			f.rrTimer = e.k.After(rrInterval, f.rrFn)
		}
	}
	f.rrFn()
}

// startVoice runs an NVP call of an exponentially sampled duration
// through the per-node stream mux, judged by the receiver's playout
// deadline accounting.
func (e *Engine) startVoice(f *Flow) {
	dur := voiceMinDur + Exponential{Mean: voiceMeanDur}.Sample(e.rng)
	if dur > voiceMaxDur {
		dur = voiceMaxDur
	}
	mux := e.muxes[f.Dst]
	if mux == nil {
		mux = nvp.NewMux(e.nw.Node(f.Dst))
		e.muxes[f.Dst] = mux
	}
	id := uint16(f.ID)
	recv := mux.Receiver(id)
	snd := nvp.NewSender(e.nw.Node(f.Src), e.nw.Addr(f.Dst), id)
	frames := int(dur / snd.FrameInterval)
	f.Size = frames * snd.FrameBytes
	f.Established = true
	e.ctrEstablished++
	snd.Start(dur)
	e.k.After(dur+recv.PlayoutDelay+time.Second, func() {
		st := recv.Stats()
		f.OnTime, f.Late, f.Lost = st.OnTime, st.Late, st.Lost
		f.BytesRx = int(st.OnTime) * snd.FrameBytes
		e.ctrDelivered += uint64(f.BytesRx)
		f.Done = true
		f.End = e.k.Now()
		e.ctrCompleted++
		mux.Close(id)
	})
}

// fail records a flow that ended in error before completing.
func (e *Engine) fail(f *Flow) {
	if f.Done {
		return
	}
	f.Done = false
	f.End = e.k.Now()
	e.ctrFailed++
	e.stopSampling(f)
}

// Summary is the engine's measured outcome over the run, shaped for
// experiment tables and campaign metrics.
type Summary struct {
	Started, Established, Completed int
	OfferedBytes, DeliveredBytes    uint64
	// OfferedBps/GoodputBps are aggregate rates over the window.
	OfferedBps, GoodputBps float64
	// FCT collects completion times (seconds) of completed flows.
	FCT stats.Sample
	// Goodputs holds one per-flow delivered rate (bits/s) per admitted
	// flow, zeros included — the fairness population.
	Goodputs []float64
	// Jain is Jain's fairness index over Goodputs.
	Jain float64
	// Retransmits totals TCP retransmitted segments across flows.
	Retransmits uint64
	// RTOSyncCorr is the mean pairwise correlation of per-flow binned
	// retransmission series — near 1 when every flow's timer fires in
	// the same bins (global RTO synchronization), near 0 when
	// retransmissions are uncorrelated.
	RTOSyncCorr float64
	// RetransBurstiness is the index of dispersion (variance/mean) of
	// the aggregate per-bin retransmission series; 1 is Poisson-like,
	// large values mean synchronized bursts.
	RetransBurstiness float64
	// VoiceOnTimeFrac is on-time voice frames over frames received.
	VoiceOnTimeFrac float64
}

// maxCorrFlows caps the pairwise-correlation population (N² pairs).
const maxCorrFlows = 64

// Summarize reduces the flow log to a Summary. window is the interval
// offered load and goodput are averaged over — normally Arm's window;
// per-flow goodputs use each flow's own lifetime within it.
func (e *Engine) Summarize(window sim.Duration) Summary {
	now := e.k.Now()
	s := Summary{
		Started:        int(e.ctrStarted),
		Established:    int(e.ctrEstablished),
		Completed:      int(e.ctrCompleted),
		OfferedBytes:   e.ctrOffered,
		DeliveredBytes: e.ctrDelivered,
	}
	if window > 0 {
		s.OfferedBps = float64(e.ctrOffered) * 8 / window.Seconds()
		s.GoodputBps = float64(e.ctrDelivered) * 8 / window.Seconds()
	}
	var voiceRx, voiceOnTime uint64
	for _, f := range e.flows {
		end := now
		if f.Done {
			end = f.End
			s.FCT.Add(f.FCT().Seconds())
		}
		elapsed := end.Sub(f.Start)
		gp := 0.0
		if elapsed > 0 {
			gp = float64(f.BytesRx) * 8 / elapsed.Seconds()
		}
		s.Goodputs = append(s.Goodputs, gp)
		s.Retransmits += f.Retrans
		if f.Profile == Voice {
			voiceOnTime += f.OnTime
			voiceRx += f.OnTime + f.Late
		}
	}
	s.Jain = stats.JainFairness(s.Goodputs)
	if voiceRx > 0 {
		s.VoiceOnTimeFrac = float64(voiceOnTime) / float64(voiceRx)
	}
	s.RTOSyncCorr, s.RetransBurstiness = e.retransSync()
	return s
}

// retransSync computes the RTO-synchronization measures from the
// per-flow retransmission bins: the mean pairwise Pearson correlation
// across flows that retransmitted (up to maxCorrFlows, in admission
// order), and the index of dispersion of the aggregate series.
func (e *Engine) retransSync() (corr, dispersion float64) {
	n := e.ticksDone
	if n == 0 {
		return 0, 0
	}
	agg := make([]float64, n)
	var series [][]float64
	for _, f := range e.flows {
		if len(f.bins) == 0 {
			continue
		}
		total := uint32(0)
		for _, v := range f.bins {
			total += v
		}
		aligned := make([]float64, n)
		for i, v := range f.bins {
			if t := f.binBase + i; t < n {
				aligned[t] = float64(v)
				agg[t] += float64(v)
			}
		}
		if total > 0 && len(series) < maxCorrFlows {
			series = append(series, aligned)
		}
	}
	// Index of dispersion of the aggregate.
	mean, varsum := 0.0, 0.0
	for _, v := range agg {
		mean += v
	}
	mean /= float64(n)
	for _, v := range agg {
		varsum += (v - mean) * (v - mean)
	}
	if mean > 0 {
		dispersion = varsum / float64(n) / mean
	}
	// Mean pairwise Pearson correlation.
	pairs, sum := 0, 0.0
	for i := 0; i < len(series); i++ {
		for j := i + 1; j < len(series); j++ {
			if r, ok := pearson(series[i], series[j]); ok {
				sum += r
				pairs++
			}
		}
	}
	if pairs > 0 {
		corr = sum / float64(pairs)
	}
	return corr, dispersion
}

// pearson returns the correlation of two equal-length series (false
// when either has zero variance).
func pearson(x, y []float64) (float64, bool) {
	n := float64(len(x))
	if n == 0 {
		return 0, false
	}
	mx, my := 0.0, 0.0
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, false
	}
	return sxy / math.Sqrt(sxx*syy), true
}
