package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"darpanet/bench/internal/drive"
)

// runConfig is one workload run: one child process.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int // goroutines a workload may use: nproc
	setups   int // untraced pass: how many times to set up (median reported)
	sz       sizes
	probes   []drive.Probe // traced pass: the layer probes to run after the iterations
}

// metricValue is one reported number with what is known of its spread.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`        // samples behind the median
	Q1      float64   `json:"q1,omitempty"`       // quartiles, as Python's statistics.quantiles(n=4)
	Q3      float64   `json:"q3,omitempty"`       //
	HiPct   float64   `json:"hi_pct,omitempty"`   // highest percentile with ≥10 samples beyond it
	HiValue float64   `json:"hi_value,omitempty"` //
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one run of one workload found.
type workloadResult struct {
	Name      string   `json:"name"`
	Seed      int64    `json:"seed"`
	Trace     int      `json:"trace"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	// Noisy: bench.calib_ns drifted by more than 5 % between the first
	// and the last iteration, so the host changed under the run. The
	// numbers are printed; re-run the set rather than record it.
	Noisy bool `json:"noisy"`
	// CalibNs is the calibration loop's time beside each timed iteration.
	CalibNs []float64 `json:"calib_ns"`
	// Digests holds the outcome hash of every timed iteration by index;
	// Counts the registry deltas of iteration 0. Both repeat exactly for
	// a seed, whatever the host does.
	Digests     []string               `json:"digests"`
	DigestMatch int                    `json:"digest_match"` // 1 recorded digest matches, 0 differs, -1 seed not recorded
	Counts      drive.Counts           `json:"counts"`
	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
}

//go:embed recorded.json
var recordedJSON []byte

// recordedDigest looks up the iteration-0 digest recorded for (workload,
// seed) when the benchmark was defined.
func recordedDigest(workload string, seed int64) (string, bool) {
	var rec struct {
		Digests map[string]map[string]string `json:"digests"`
	}
	if json.Unmarshal(recordedJSON, &rec) != nil {
		return "", false
	}
	d, ok := rec.Digests[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// calibSpin is a fixed integer loop timed beside every iteration. It
// touches no memory, so it holds steady while memory-side interference
// moves the workloads; when it does drift, the host's CPU changed.
func calibSpin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t0))
}

var calibSink uint64

// safeIterate runs one operation; a panic is recovered and counted as
// that operation failing.
func safeIterate(w workload, m *meter, i int) (out iterOut) {
	depth := len(m.open)
	defer func() {
		if p := recover(); p != nil {
			out.fail = fmt.Sprintf("panic: %v", p)
			// Close the spans the panic abandoned, or the rest of the
			// run would nest under them.
			for len(m.open) > depth {
				id := m.open[len(m.open)-1]
				m.spans[id-1].End = int64(time.Since(m.t0))
				m.open = m.open[:len(m.open)-1]
			}
		}
	}()
	return w.iterate(m, i)
}

// iterSample is one timed iteration's measurements.
type iterSample struct {
	out        iterOut
	calib      float64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	traced     bool
}

// runWorkload performs one run: set-up (several times in the untraced
// pass), then timed iterations for cfg.seconds, then — traced pass only
// — the layer probes.
func runWorkload(cfg runConfig) (*workloadResult, []span, error) {
	res := &workloadResult{Name: cfg.workload, Seed: cfg.seed, DigestMatch: -1}
	if cfg.trace {
		res.Trace = 1
	}
	tr := newTracer(cfg.workload, cfg.trace)
	m := &meter{tracer: tr}
	endRoot := tr.begin("workload/" + cfg.workload)

	fail := func(where, why string) {
		res.Failed++
		res.Failures = append(res.Failures, where+": "+why)
	}

	// ---- set-up: build, arm, and one untimed warm-up iteration that
	// fills packet pools, event slabs, free lists and route indexes ----
	setups := cfg.setups
	if cfg.trace || setups < 1 {
		setups = 1
	}
	var w workload
	var setupS []float64
	for s := 0; s < setups; s++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		endSetup := tr.begin("setup")
		if w = newWorkload(cfg.workload, cfg.seed, cfg.workers, cfg.sz); w == nil {
			return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		w.setup(m)
		endWarm := tr.begin("warmup")
		warm := safeIterate(w, m, -1)
		endWarm()
		endSetup()
		setupS = append(setupS, time.Since(t0).Seconds())
		res.Attempted++
		if warm.fail != "" {
			fail(fmt.Sprintf("warm-up %d", s), warm.fail)
		}
	}

	// ---- timed iterations ----
	type phase struct {
		traced bool
		budget time.Duration
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	phases := []phase{{false, total}}
	if cfg.trace {
		// Traced iterations come first so that iteration 0 — whose
		// counts and digest are reported — is always a traced one; the
		// untraced tail is the baseline for bench.trace_overhead_frac.
		phases = []phase{{true, total * 6 / 10}, {false, total * 4 / 10}}
	}
	var samples []iterSample
	var cur *iterSample // the traced iteration in progress
	var prof bytes.Buffer
	var profs [][]byte // one CPU profile per timed window of the traced iterations
	var profErr error
	var ms0, ms1 runtime.MemStats
	// In the traced phase the edges of every timed window start and stop
	// the CPU profile and read the allocator's counters.
	windowStart := func() {
		runtime.ReadMemStats(&ms0)
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil && profErr == nil {
			profErr = err
		}
	}
	windowStop := func() {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		cur.mallocs += ms1.Mallocs - ms0.Mallocs
		cur.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		cur.gcCycles += ms1.NumGC - ms0.NumGC
		cur.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		profs = append(profs, bytes.Clone(prof.Bytes()))
	}
	const minIters = 2
	index := 0
	for _, ph := range phases {
		tr.on = ph.traced
		m.onStart, m.onStop = nil, nil
		if ph.traced {
			m.onStart, m.onStop = windowStart, windowStop
		}
		start := time.Now()
		for n := 0; n < minIters || time.Since(start) < ph.budget; n++ {
			runtime.GC()
			cur = &iterSample{traced: ph.traced, calib: calibSpin()}
			endIter := tr.begin(fmt.Sprintf("iter/%d", index))
			cur.out = safeIterate(w, m, index)
			endIter()
			res.Attempted++
			if cur.out.fail != "" {
				fail(fmt.Sprintf("iteration %d", index), cur.out.fail)
			}
			res.Digests = append(res.Digests, cur.out.digest)
			samples = append(samples, *cur)
			index++
		}
	}
	if profErr != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	m.onStart, m.onStop = nil, nil

	first := samples[0]
	res.Counts = first.out.counts
	if want, ok := recordedDigest(cfg.workload, cfg.seed); ok {
		res.DigestMatch = 0
		if want == first.out.digest {
			res.DigestMatch = 1
		}
	}
	for _, s := range samples {
		res.CalibNs = append(res.CalibNs, s.calib)
	}
	// First against last; with six or more, the median of the first
	// three against the median of the last three, since one calibration
	// sample alone wanders by a few percent.
	edge := 1
	if len(res.CalibNs) >= 6 {
		edge = 3
	}
	if d := median(res.CalibNs[len(res.CalibNs)-edge:])/median(res.CalibNs[:edge]) - 1; d > 0.05 || d < -0.05 {
		res.Noisy = true
	}

	if !cfg.trace {
		walls := pick(samples, false, wallOf)
		fps := pick(samples, false, func(s iterSample) float64 { return float64(s.out.counts.Frames()) / s.out.wall.Seconds() })
		res.EndToEnd = map[string]metricValue{
			"setup_s":      summarize(setupS, "s"),
			"wall_s":       summarize(walls, "s"),
			"frames_per_s": summarize(fps, "frames/s"),
			"peak_rss_mb":  {Value: peakRSSMiB(), Unit: "MiB", N: 1},
		}
		endRoot()
		return res, nil, nil
	}

	// ---- traced pass: probes, then the per-layer ledger ----
	tr.on = true
	probeVals := make(map[string]float64)
	endProbes := tr.begin("probes")
	for _, p := range cfg.probes {
		run, ops := p.Prepare()
		runtime.GC()
		end := tr.begin("probe/" + p.Metric)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		end()
		probeVals[p.Metric] = p.Kind.Value(d, ops)
	}
	endProbes()
	endRoot()

	byFunc := make(map[string]int64)
	for _, pb := range profs {
		one, err := leafSamples(pb)
		if err != nil {
			return nil, nil, err
		}
		for fn, n := range one {
			byFunc[fn] += n
		}
	}
	res.PerLayer = perLayer(samples, probeVals, cpuShares(byFunc), res.DigestMatch)
	return res, tr.spans, nil
}

// pick applies f to the traced (or the untraced) iterations, in order.
func pick(samples []iterSample, traced bool, f func(iterSample) float64) []float64 {
	var vs []float64
	for _, s := range samples {
		if s.traced == traced {
			vs = append(vs, f(s))
		}
	}
	return vs
}

func wallOf(s iterSample) float64 { return s.out.wall.Seconds() }

// summarize reduces samples to their median with quartiles and, when
// the count allows, the highest supportable percentile.
func summarize(vs []float64, unit string) metricValue {
	mv := metricValue{Value: median(vs), Unit: unit, N: len(vs), Samples: vs}
	mv.Q1, mv.Q3 = quartiles(vs)
	if pct, v, ok := highPercentile(vs); ok {
		mv.HiPct, mv.HiValue = pct, v
	}
	return mv
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer assembles every per-layer metric of the dictionary. Counts
// come from iteration 0 (exact and repeatable for a seed); runtime and
// workload-specific values are medians over the traced iterations.
func perLayer(samples []iterSample, probes, shares map[string]float64, digestMatch int) map[string]metricValue {
	c := samples[0].out.counts
	v := make(map[string]float64)

	for layer, share := range shares {
		if layer == "other" {
			v["bench.other_cpu_share"] = share
		} else {
			v[layer+".cpu_share"] = share
		}
	}
	for name, val := range probes {
		v[name] = val
	}

	v["phys.tx_frames"] = float64(c["nic/tx_frames"])
	v["phys.tx_bytes"] = float64(c["nic/tx_bytes"])
	v["phys.queue_drops"] = float64(c["medium/queue_drops"])
	v["phys.rx_lost"] = float64(c["nic/rx_lost"])
	v["phys.aqm_enqueues"] = float64(c["aqm/enqueues"])
	v["phys.aqm_early_drops"] = float64(c["aqm/early_drops"])
	v["ipv4.frag_created"] = float64(c["ip/frag_created"])
	v["ipv4.reasm_fragments"] = float64(c["reasm/fragments"])
	v["ipv4.reasm_timeouts"] = float64(c["reasm/timeouts"])
	v["stack.ip_forwarded"] = float64(c["ip/forwarded"])
	v["stack.in_delivers"] = float64(c["ip/in_delivers"])
	v["stack.no_route"] = float64(c["ip/no_route"])
	v["stack.ttl_drops"] = float64(c["ip/ttl_drops"])
	v["stack.forwards_per_delivery"] = ratio(c["ip/forwarded"], c["ip/in_delivers"])
	v["tcp.segs_sent"] = float64(c["tcp/segs_sent"])
	v["tcp.segs_received"] = float64(c["tcp/segs_received"])
	v["tcp.retransmits"] = float64(c["tcp/retransmits"])
	v["tcp.timeouts"] = float64(c["tcp/timeouts"])
	v["tcp.conns"] = float64(c["tcp/conns"])
	v["tcp.retrans_ratio"] = ratio(c["tcp/bytes_retrans"], c["tcp/bytes_sent"])
	v["packet.pool_hit_ratio"] = ratio(c["pool/hits"], c["pool/gets"])
	v["rip.updates_sent"] = float64(c["rip/updates_sent"])
	v["rip.route_changes"] = float64(c["rip/route_changes"])
	v["workload.flows_started"] = float64(c["engine/flows_started"])
	v["workload.flows_completed"] = float64(c["engine/flows_completed"])
	v["workload.goodput_frac"] = ratio(c["engine/bytes_delivered"], c["engine/bytes_offered"])

	pendingMax := 0
	extras := make(map[string][]float64)
	for _, s := range samples {
		if !s.traced {
			continue
		}
		if s.out.pending > pendingMax {
			pendingMax = s.out.pending
		}
		for k, x := range s.out.extra {
			extras[k] = append(extras[k], x)
		}
	}
	v["sim.pending_events_max"] = float64(pendingMax)
	for k, xs := range extras {
		v[k] = median(xs)
	}

	v["runtime.allocs_per_kframe"] = median(pick(samples, true, func(s iterSample) float64 {
		return ratio(s.mallocs*1000, s.out.counts.Frames())
	}))
	v["runtime.alloc_mb_per_iter"] = median(pick(samples, true, func(s iterSample) float64 { return float64(s.allocBytes) / (1 << 20) }))
	v["runtime.gc_cycles"] = median(pick(samples, true, func(s iterSample) float64 { return float64(s.gcCycles) }))
	v["runtime.gc_pause_ms"] = median(pick(samples, true, func(s iterSample) float64 { return float64(s.gcPauseNs) / 1e6 }))

	traced, untraced := pick(samples, true, wallOf), pick(samples, false, wallOf)
	v["bench.calib_ns"] = median(append(pick(samples, true, func(s iterSample) float64 { return s.calib }),
		pick(samples, false, func(s iterSample) float64 { return s.calib })...))
	v["bench.wall_iqr_frac"] = iqrFrac(traced)
	v["bench.trace_overhead_frac"] = median(traced)/median(untraced) - 1
	v["bench.digest_match"] = float64(digestMatch)

	out := make(map[string]metricValue, len(perLayerDefs))
	for _, def := range perLayerDefs {
		x := v[def.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0 // a ratio with nothing under it on this workload
		}
		out[def.Name] = metricValue{Value: x, Unit: def.Unit}
	}
	return out
}

// resultLine is the contract's last line of standard output.
func resultLine(res *workloadResult) string {
	metrics := res.EndToEnd
	if res.Trace == 1 {
		metrics = res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]mv, len(metrics))}
	for name, m := range metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN/Inf can do this: a bug in the metric arithmetic
	}
	return string(b)
}

// report prints one workload's result for a human.
func report(w io.Writer, res *workloadResult) {
	flags := ""
	if res.Noisy {
		flags += "  NOISY (calibration loop drifted >5%: re-run before recording)"
	}
	if res.Failed > 0 {
		flags += "  FAILED"
	}
	digest := ""
	if len(res.Digests) > 0 {
		digest = res.Digests[0]
	}
	fmt.Fprintf(w, "%s  seed=%d trace=%d  ops=%d failed=%d  digest=%s match=%d%s\n",
		res.Name, res.Seed, res.Trace, res.Attempted, res.Failed, digest, res.DigestMatch, flags)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, def := range endToEndDefs {
		m, ok := res.EndToEnd[def.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-9s n=%d", def.Name, m.Value, m.Unit, m.N)
		if m.N > 1 {
			fmt.Fprintf(w, "  q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		if m.HiPct > 0 {
			fmt.Fprintf(w, "  p%.0f=%.6g", m.HiPct, m.HiValue)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(res.PerLayer))
	for name := range res.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.PerLayer[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
}
