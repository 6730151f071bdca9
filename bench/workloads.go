package main

import (
	"fmt"
	"time"

	"darpanet/bench/internal/drive"
)

// iterOut is what one iteration — one operation — reports.
type iterOut struct {
	wall    time.Duration      // the timed window: build (if per-iteration) + run + summarize
	counts  drive.Counts       // registry deltas of this iteration, summed by layer
	digest  string             // hash of the simulated outcome
	fail    string             // non-empty: the operation failed, and why
	pending int                // highest kernel queue depth seen at a slice boundary
	extra   map[string]float64 // workload-specific per-layer values
}

// workload is one of the five closed-loop batch workloads. setup builds
// whatever outlives an iteration; iterate runs one operation and checks
// it. Both put spans around their calls into the layers.
type workload interface {
	setup(tr *meter)
	iterate(tr *meter, i int) iterOut
}

// sizes holds every workload's dimensions. fullSizes is what the
// benchmark measures; smallSizes (about 1/100) is for the self-tests.
type sizes struct {
	fwdDatagrams int

	bulkTransfers, bulkBytes int

	collapseWindow, collapseDrain time.Duration
	collapseFrames                int

	shardSpec                string // topo.ParseSpec form
	shardRegions, shardFlows int
	shardReqPerSec           int
	shardIter                time.Duration

	campaignIDs  []string
	campaignRuns int
}

var fullSizes = sizes{
	fwdDatagrams:   400_000,
	bulkTransfers:  16,
	bulkBytes:      4 << 20,
	collapseWindow: drive.CollapseWindow,
	collapseDrain:  drive.CollapseDrain,
	collapseFrames: 1_000_000,
	shardSpec:      drive.E16Spec,
	shardRegions:   drive.ShardRegions,
	shardFlows:     512,
	shardReqPerSec: 25,
	shardIter:      time.Second,
	campaignIDs:    drive.CampaignIDs,
	campaignRuns:   4,
}

var smallSizes = sizes{
	fwdDatagrams:   4_000,
	bulkTransfers:  2,
	bulkBytes:      40 << 10,
	collapseWindow: 2 * time.Second,
	collapseDrain:  2 * time.Second,
	collapseFrames: 30_000,
	shardSpec:      "transitstub:gw=8,stubs=2,hosts=1,mix=0",
	shardRegions:   4,
	shardFlows:     16,
	shardReqPerSec: 25,
	shardIter:      400 * time.Millisecond,
	campaignIDs:    []string{"E2", "E8"},
	campaignRuns:   2,
}

// newWorkload returns the named workload, or nil.
func newWorkload(name string, seed int64, workers int, sz sizes) workload {
	switch name {
	case "fwd_chain_64b":
		return &fwdChain{seed: seed, sz: sz}
	case "tcp_bulk_hetero":
		return &tcpBulk{seed: seed, sz: sz}
	case "collapse_mix":
		return &collapseMix{seed: seed, sz: sz}
	case "scale_sharded_2000gw":
		return &scaleSharded{seed: seed, workers: min(workers, sz.shardRegions), sz: sz}
	case "campaign_mc":
		return &campaignMC{seed: seed, workers: min(workers, sz.campaignRuns), sz: sz}
	}
	return nil
}

const slicesPerIter = 8

// runSlices cuts an iteration's run into eight run.slice/<j> spans, so
// host cost per slice of simulated work is visible in the trace, and
// samples the kernel queue depth at each boundary.
func runSlices(tr *meter, pending func() int, run func(j int)) (maxPending int) {
	for j := 0; j < slicesPerIter; j++ {
		end := tr.begin(fmt.Sprintf("run.slice/%d", j))
		run(j)
		end()
		if p := pending(); p > maxPending {
			maxPending = p
		}
	}
	return maxPending
}

// sameDigest fails an iteration whose outcome differs from the first
// one this workload produced: iterations are identical by construction.
func sameDigest(first *string, got string) string {
	if *first == "" {
		*first = got
	}
	if got != *first {
		return fmt.Sprintf("digest %s differs from first iteration's %s", got, *first)
	}
	return ""
}

// ---- 1. fwd_chain_64b ----

type fwdChain struct {
	seed  int64
	sz    sizes
	chain *drive.Chain
	prev  drive.Counts
}

func (w *fwdChain) setup(tr *meter) {
	defer tr.begin("stack.wire_chain")()
	w.chain = drive.NewChain(w.seed, 8, 44)
	w.prev = w.chain.Read().Counts
}

func (w *fwdChain) iterate(tr *meter, i int) (out iterOut) {
	sent0, got0 := w.chain.Sent(), w.chain.Delivered()
	per := w.sz.fwdDatagrams / slicesPerIter
	var sendErr error
	out.wall = tr.timed(func() {
		out.pending = runSlices(tr, w.chain.PendingEvents, func(int) {
			if err := w.chain.Send(per, 32); err != nil && sendErr == nil {
				sendErr = err
			}
		})
	})

	end := tr.begin("metrics.snapshot")
	rd := w.chain.Read()
	end()
	end = tr.begin("digest")
	out.counts = rd.Counts.Sub(w.prev)
	w.prev = rd.Counts
	d := drive.NewDigest()
	d.Counts(out.counts)
	d.Bytes(w.chain.Payload())
	d.Uint(w.chain.Corrupt())
	out.digest = d.Hex()
	end()

	sent, got := w.chain.Sent()-sent0, w.chain.Delivered()-got0
	switch {
	case sendErr != nil:
		out.fail = "send: " + sendErr.Error()
	case w.chain.Corrupt() != 0:
		out.fail = fmt.Sprintf("%d datagrams arrived with a different payload", w.chain.Corrupt())
	case got != sent:
		out.fail = fmt.Sprintf("delivered %d of %d datagrams", got, sent)
	case out.counts.Frames() != uint64(w.chain.Links())*sent:
		out.fail = fmt.Sprintf("%d frames for %d datagrams over %d links", out.counts.Frames(), sent, w.chain.Links())
	}
	return out
}

// ---- 2. tcp_bulk_hetero ----

type tcpBulk struct {
	seed   int64
	sz     sizes
	data   []byte
	want   []byte        // what the receiver compares against; == data except in the self-test
	simLen time.Duration // simulated time the warm-up needed, cut into the eight slices
	first  string
}

func (w *tcpBulk) setup(tr *meter) {
	defer tr.begin("bench.pattern")()
	w.data = drive.Pattern(w.seed, w.sz.bulkBytes)
	w.want = w.data
}

func (w *tcpBulk) iterate(tr *meter, i int) (out iterOut) {
	var g *drive.Gauntlet
	out.wall = tr.timed(func() {
		end := tr.begin("core.build")
		g = drive.NewGauntlet(w.seed)
		end()
		end = tr.begin("tcp.dial")
		g.Start(w.sz.bulkTransfers, w.data, w.want)
		end()
		// Fixed steps, so every iteration stops at the same simulated
		// instant whatever the slice length; the slices only decide which
		// span a step lands in. The warm-up does not know the length yet
		// and runs everything in the last slice.
		const step = 10 * time.Millisecond
		out.pending = runSlices(tr, g.PendingEvents, func(j int) {
			until := w.simLen * time.Duration(j+1) / slicesPerIter
			for last := j == slicesPerIter-1; !g.AllDone() && (last || g.Now() < until) && g.Now() < time.Hour; {
				g.RunFor(step)
			}
		})
	})
	if w.simLen == 0 {
		w.simLen = g.Now()
	}

	end := tr.begin("metrics.snapshot")
	rd := g.Read()
	end()
	end = tr.begin("digest")
	out.counts = rd.Counts
	d := drive.NewDigest()
	d.Reading(rd)
	for _, t := range g.Transfers {
		d.Uint(uint64(t.Received))
		d.Uint(uint64(t.Mismatched))
	}
	out.digest = d.Hex()
	end()

	for n, t := range g.Transfers {
		if !t.Intact() {
			out.fail = fmt.Sprintf("transfer %d: %d of %d bytes, %d wrong, done=%v, err=%v", n, t.Received, t.Target, t.Mismatched, t.Done, t.Err)
			return out
		}
	}
	out.fail = sameDigest(&w.first, out.digest)
	return out
}

// ---- 3. collapse_mix ----

// collapseMix runs E13 load-point cells — storm, managed, storm, ... on
// successive flow populations — until a fixed number of link frames has
// been simulated. One storm cell alone ranges from 380 k to 860 k frames
// with the seed (collapse is chaotic), so "one cell" is not a fixed
// amount of work; a frame quota is, and it keeps wall_s comparable
// across seeds.
type collapseMix struct {
	seed  int64
	sz    sizes
	first string
}

func (w *collapseMix) setup(*meter) {}

func (w *collapseMix) iterate(tr *meter, i int) (out iterOut) {
	out.counts = make(drive.Counts)
	d := drive.NewDigest()
	quota := uint64(w.sz.collapseFrames)
	// The quota is checked every quarter slice, so an iteration
	// overshoots it by at most ~3 % of a cell.
	const stepsPerSlice = 4
	step := (w.sz.collapseWindow + w.sz.collapseDrain) / (slicesPerIter * stepsPerSlice)
	var frames uint64
	for n := 0; frames < quota && n < 64; n++ {
		name, c := "storm", drive.StormCell(w.seed, n/2)
		if n%2 == 1 {
			name, c = "managed", drive.ManagedCell(w.seed, n/2)
		}
		endCell := tr.begin(fmt.Sprintf("cell/%s/%d", name, n/2))
		var sum drive.CollapseSummary
		out.wall += tr.timed(func() {
			end := tr.begin("topo.generate")
			c.Generate()
			end()
			end = tr.begin("core.install_routes")
			c.InstallRoutes()
			end()
			end = tr.begin("stack.install_qdisc")
			c.InstallQdisc()
			end()
			end = tr.begin("workload.arm")
			c.Arm(w.sz.collapseWindow)
			end()
			if p := runSlices(tr, c.PendingEvents, func(int) {
				for s := 0; s < stepsPerSlice && frames+c.Frames() < quota; s++ {
					c.RunFor(step)
				}
			}); p > out.pending {
				out.pending = p
			}
			end = tr.begin("summarize")
			sum = c.Summarize(w.sz.collapseWindow)
			end()
		})

		end := tr.begin("metrics.snapshot")
		rd := c.Read()
		end()
		end = tr.begin("digest")
		frames += rd.Counts.Frames()
		out.counts.Add(rd.Counts)
		d.Reading(rd)
		d.Uint(uint64(sum.Started))
		d.Uint(uint64(sum.Completed))
		d.Uint(sum.OfferedBytes)
		d.Uint(sum.DeliveredBytes)
		d.Uint(sum.Retransmits)
		end()
		if sum.Started == 0 {
			out.fail = name + " cell admitted no flows"
		}
		endCell()
	}
	out.digest = d.Hex()
	if frames < quota {
		out.fail = fmt.Sprintf("only %d of %d frames after 64 cells", frames, quota)
	}
	if out.fail == "" {
		out.fail = sameDigest(&w.first, out.digest)
	}
	return out
}

// ---- 4. scale_sharded_2000gw ----

type scaleSharded struct {
	seed       int64
	workers    int
	sz         sizes
	net        *drive.Sharded
	prev       drive.Counts
	busy, crit time.Duration
	inject     func(*drive.Sharded) // self-test hook, run before each iteration
}

func (w *scaleSharded) setup(tr *meter) {
	end := tr.begin("topo.generate_sharded")
	var err error
	if w.net, err = drive.NewSharded(w.sz.shardSpec, w.seed, w.sz.shardRegions, w.workers); err != nil {
		panic(err)
	}
	end()
	end = tr.begin("udp.arm_flows")
	w.net.ArmFlows(w.seed, w.sz.shardFlows, 64, w.sz.shardReqPerSec)
	end()
	w.prev = w.net.Read().Counts
}

func (w *scaleSharded) iterate(tr *meter, i int) (out iterOut) {
	if w.inject != nil {
		w.inject(w.net)
	}
	slice := w.sz.shardIter / slicesPerIter
	out.wall = tr.timed(func() {
		out.pending = runSlices(tr, w.net.PendingEvents, func(int) { w.net.RunFor(slice) })
	})
	older, answered := w.net.Settle()

	end := tr.begin("metrics.snapshot")
	rd := w.net.Read()
	end()
	end = tr.begin("digest")
	out.counts = rd.Counts.Sub(w.prev)
	w.prev = rd.Counts
	d := drive.NewDigest()
	d.Reading(rd)
	d.Uint(w.net.Requests())
	d.Uint(older)
	d.Uint(answered)
	out.digest = d.Hex()
	end()

	busy, crit, lookahead := w.net.ShardTimes()
	out.extra = map[string]float64{
		"sim.shard_busy_s":     (busy - w.busy).Seconds(),
		"sim.shard_critical_s": (crit - w.crit).Seconds(),
		"sim.shard_util":       (busy - w.busy).Seconds() / (float64(w.workers) * out.wall.Seconds()),
		"sim.shard_epochs":     float64((w.sz.shardIter + lookahead - 1) / lookahead),
	}
	w.busy, w.crit = busy, crit

	out.fail = checkSharded(answered, older, rd.Counts.LedgerDelta(), i >= 0)
	return out
}

// checkSharded judges one scale_sharded iteration: at least 99 % of the
// requests sent during the previous iteration — all at least one
// iteration old by now — must have been answered, every region's frame
// ledger must close, and after the warm-up there must have been such
// requests at all.
func checkSharded(answered, older uint64, ledger int64, timed bool) string {
	switch {
	case float64(answered) < 0.99*float64(older):
		return fmt.Sprintf("%d replies to the %d requests of the previous iteration", answered, older)
	case ledger != 0:
		return fmt.Sprintf("frame ledger off by %d", ledger)
	case timed && older == 0:
		return "no requests were sent"
	}
	return ""
}

// ---- 5. campaign_mc ----

type campaignMC struct {
	seed    int64
	workers int
	sz      sizes
	first   string
}

func (w *campaignMC) setup(*meter) {}

func (w *campaignMC) iterate(tr *meter, i int) (out iterOut) {
	out.counts = make(drive.Counts)
	out.extra = make(map[string]float64)
	d := drive.NewDigest()
	var busy time.Duration
	out.wall = tr.timed(func() {
		for _, id := range w.sz.campaignIDs {
			end := tr.begin("exp." + id)
			t1 := time.Now()
			res, err := drive.RunCampaign(id, w.sz.campaignRuns, w.workers, w.seed)
			out.extra["exp."+id+".wall_s"] = time.Since(t1).Seconds()
			end()
			if err != nil {
				out.fail = err.Error()
				continue
			}
			if res.Failures > 0 {
				out.fail = fmt.Sprintf("%s: %d replicas failed", id, res.Failures)
			}
			busy += res.ReplicaBusy
			out.counts.Add(res.Counts)
			d.Bytes(res.JSON)
		}
	})
	out.digest = d.Hex()
	replicas := float64(len(w.sz.campaignIDs) * w.sz.campaignRuns)
	out.extra["harness.replicas_per_s"] = replicas / out.wall.Seconds()
	out.extra["harness.parallel_eff"] = busy.Seconds() / (float64(w.workers) * out.wall.Seconds())
	if out.fail == "" {
		out.fail = sameDigest(&w.first, out.digest)
	}
	return out
}
