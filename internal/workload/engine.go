package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/metrics"
	"darpanet/internal/nvp"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
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
	responders map[string]bool
	nextPort   map[string]uint16

	keyBuf []byte // shared keystroke byte
}

// New creates an engine over the named hosts (at least two) of nw. Its
// counters register immediately under workload/engine/ in the kernel's
// metrics registry, as gauges summed over its flows. nw must be one
// region: the engine runs on one kernel and touches every host from it.
func New(nw *core.Network, hosts []string, spec Spec, seed int64) *Engine {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	if len(hosts) < 2 {
		panic("workload: need at least two hosts")
	}
	if n := len(nw.Kernels()); n > 1 {
		panic(fmt.Sprintf("workload: an internet of %d regions: the engine runs on one", n))
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
		responders: make(map[string]bool),
		nextPort:   make(map[string]uint16),
		keyBuf:     []byte{'.'},
		on:         true,
	}
	e.arriveFn = e.arrive
	e.binFn = e.binTick
	e.toggleFn = e.toggle
	reg := metrics.For(e.k)
	for _, g := range []struct {
		name string
		of   func(*Flow) int
	}{
		{"flows_started", func(*Flow) int { return 1 }},
		{"flows_established", func(f *Flow) int { return b2i(f.Established) }},
		{"flows_completed", func(f *Flow) int { return b2i(f.Done) }},
		{"flows_failed", func(f *Flow) int { return b2i(f.failed) }},
		{"bytes_offered", func(f *Flow) int { return f.Size }},
		{"bytes_delivered", func(f *Flow) int { return f.BytesRx }},
	} {
		reg.Gauge("workload", "engine", g.name, func() uint64 {
			n := 0
			for _, f := range e.flows {
				n += g.of(f)
			}
			return uint64(n)
		})
	}
	return e
}

// b2i counts a true as one.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

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
		st := f.Conn.Stats()
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
	src, dst := PickPair(e.rng, e.hosts)
	f := &Flow{
		ID:      len(e.flows),
		Profile: e.pickProfile(),
		Src:     src,
		Dst:     dst,
		Start:   e.k.Now(),
	}
	e.flows = append(e.flows, f)
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
}

// finishTCP closes out a TCP-backed flow: final retransmission count,
// bin-ticker removal, completion accounting.
func (e *Engine) finishTCP(f *Flow) {
	if f.Done {
		return
	}
	f.Done = true
	f.End = e.k.Now()
	e.stopSampling(f)
}

// stopSampling takes the flow's final retransmission reading and
// removes it from the bin ticker's active set.
func (e *Engine) stopSampling(f *Flow) {
	if f.Conn != nil {
		st := f.Conn.Stats()
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

// trackTCP registers the flow's dialled connection with the bin ticker.
func (e *Engine) trackTCP(f *Flow) {
	f.bins = make([]uint32, 0, e.remainingBins())
	f.binBase = e.ticksDone
	e.activeTCP = append(e.activeTCP, f)
}

// startBulk opens a one-way transfer src → dst of a Pareto-sampled
// size, and closes the receiving side and its listener once every byte
// has arrived.
func (e *Engine) startBulk(f *Flow) {
	f.Size = int(e.sizes.Sample(e.rng))
	bulk(e.nw, f, e.port(f.Dst), e.tcpOpts(), func(lst *tcp.Listener, srv *tcp.Conn) {
		if srv == nil {
			e.fail(f, f.Err)
			return
		}
		e.stopSampling(f)
		lst.Close()
		srv.Close()
	})
	if f.Conn != nil {
		e.trackTCP(f)
	}
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
			c.Write(b) // echo
		})
		c.OnEOF(func() { c.Close() })
	})
	if err != nil {
		e.fail(f, err)
		return
	}
	conn, err := e.nw.TCP(f.Src).Dial(tcp.Endpoint{Addr: e.nw.Addr(f.Dst), Port: port}, opts)
	if err != nil {
		lst.Close()
		e.fail(f, err)
		return
	}
	f.Conn = conn
	e.trackTCP(f)
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
		echoes += len(b)
		if echoes >= keys*keystrokeSize && f.keysLeft == 0 {
			e.finishTCP(f)
			lst.Close()
			conn.Close()
		}
	})
	conn.OnEstablished(func() {
		f.Established = true
		f.keyTimer = e.k.After(e.spec.Think, f.keyFn)
	})
	conn.OnClose(func(err error) {
		f.keyTimer.Stop()
		if err != nil {
			e.fail(f, err)
		}
	})
}

// startRR drives rrTxns UDP request/response transactions against the
// node's one responder, started with the node's first rr flow. UDP
// offers no retransmission, so a lost request or response simply leaves
// the flow incomplete — the datagram honesty the profile exists to
// measure.
func (e *Engine) startRR(f *Flow) {
	if !e.responders[f.Dst] {
		if err := respond(e.nw, f.Dst, rrPort, rrRespBytes); err != nil {
			panic(fmt.Sprintf("workload: rr responder on %s: %v", f.Dst, err))
		}
		e.responders[f.Dst] = true
	}
	f.Size = rrTxns * rrRespBytes
	queries(e.nw, f, rrPort, rrTxns, rrInterval, rrReqBytes, 0)
	if f.Err != nil {
		e.fail(f, f.Err)
	}
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
	snd.Start(dur)
	e.k.After(dur+recv.PlayoutDelay+time.Second, func() {
		st := recv.Stats()
		f.OnTime, f.Late, f.Lost = st.OnTime, st.Late, st.Lost
		f.BytesRx = int(st.OnTime) * snd.FrameBytes
		f.Done = true
		f.End = e.k.Now()
		mux.Close(id)
	})
}

// fail records a flow that ended in err before completing.
func (e *Engine) fail(f *Flow, err error) {
	if f.Err == nil {
		f.Err = err
	}
	if f.Done || f.failed {
		return
	}
	f.failed = true
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
	s := Summary{Started: len(e.flows)}
	var voiceRx, voiceOnTime uint64
	for _, f := range e.flows {
		s.Established += b2i(f.Established)
		s.OfferedBytes += uint64(f.Size)
		s.DeliveredBytes += uint64(f.BytesRx)
		end := now
		if f.Done {
			s.Completed++
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
	if window > 0 {
		s.OfferedBps = float64(s.OfferedBytes) * 8 / window.Seconds()
		s.GoodputBps = float64(s.DeliveredBytes) * 8 / window.Seconds()
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
