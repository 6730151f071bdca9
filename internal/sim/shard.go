package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// ShardGroup advances a fixed set of region kernels in lock-step epochs
// under conservative (null-message-free) synchronization. Each epoch
// every kernel runs independently up to a shared deadline now+lookahead;
// at the barrier a single-threaded exchange callback moves cross-shard
// frames between kernels, and the next epoch begins. The lookahead must
// not exceed the minimum cross-shard link propagation delay: then a
// frame serialized during epoch e arrives no earlier than the start of
// epoch e+1, so importing it at the barrier can never schedule an event
// in a shard's past.
//
// Workers only controls how many goroutines execute the (mutually
// independent) kernels within an epoch. The epoch schedule, each
// kernel's event order, and the barrier exchange order are all fixed by
// the lookahead and the exchange callback — results are byte-identical
// at any worker count by construction, the same invariant the campaign
// harness pins for replica workers.
type ShardGroup struct {
	kernels   []*Kernel
	lookahead Duration
	workers   int
	exchange  func()
	now       Time

	// busy accumulates per-kernel wall-clock time spent executing
	// events, and epochMax the per-epoch maximum across kernels: the
	// critical path of an idealized parallel run. Diagnostics only —
	// never part of simulation results.
	busy     []time.Duration
	epochMax time.Duration
	elapsed  []time.Duration // one epoch's per-kernel times, written by the workers
}

// NewShardGroup groups kernels for lock-step execution. All kernels
// must share the same current time (normally 0, freshly created).
// lookahead must be positive; workers is clamped to [1, len(kernels)].
func NewShardGroup(kernels []*Kernel, lookahead Duration, workers int) *ShardGroup {
	if len(kernels) == 0 {
		panic("sim: ShardGroup needs at least one kernel")
	}
	if lookahead <= 0 {
		panic("sim: ShardGroup lookahead must be positive")
	}
	for _, k := range kernels[1:] {
		if k.Now() != kernels[0].Now() {
			panic("sim: ShardGroup kernels disagree on current time")
		}
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(kernels) {
		workers = len(kernels)
	}
	return &ShardGroup{
		kernels:   kernels,
		lookahead: lookahead,
		workers:   workers,
		exchange:  func() {},
		now:       kernels[0].Now(),
		busy:      make([]time.Duration, len(kernels)),
		elapsed:   make([]time.Duration, len(kernels)),
	}
}

// SetExchange installs the barrier callback. It runs single-threaded
// between epochs, after every kernel has reached the epoch deadline; it
// is the only place cross-kernel state may move.
func (g *ShardGroup) SetExchange(fn func()) {
	if fn == nil {
		fn = func() {}
	}
	g.exchange = fn
}

// Now returns the group's common simulated time (the last barrier).
func (g *ShardGroup) Now() Time { return g.now }

// Lookahead returns the epoch length.
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// Kernels returns the region kernels in fixed order.
func (g *ShardGroup) Kernels() []*Kernel { return g.kernels }

// RunFor advances all shards by d of simulated time.
func (g *ShardGroup) RunFor(d Duration) Time { return g.RunUntil(g.now.Add(d)) }

// RunUntil advances all shards to deadline in lookahead-bounded epochs,
// exchanging cross-shard traffic at each barrier. On return every
// kernel's clock equals deadline.
func (g *ShardGroup) RunUntil(deadline Time) Time {
	for g.now < deadline {
		end := g.now.Add(g.lookahead)
		if end > deadline {
			end = deadline
		}
		g.runEpoch(end)
		g.now = end
		g.exchange()
	}
	return g.now
}

// runEpoch executes every kernel up to end, fanning out across the
// worker goroutines. With one worker the loop stays on the calling
// goroutine: no spawns, no atomics, nothing on the hot path.
func (g *ShardGroup) runEpoch(end Time) {
	var max time.Duration
	if g.workers == 1 || len(g.kernels) == 1 {
		for i, k := range g.kernels {
			t0 := time.Now()
			k.RunUntil(end)
			d := time.Since(t0)
			g.busy[i] += d
			if d > max {
				max = d
			}
		}
		g.epochMax += max
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	elapsed := g.elapsed // every entry is rewritten each epoch
	wg.Add(g.workers)
	for w := 0; w < g.workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(g.kernels) {
					return
				}
				t0 := time.Now()
				g.kernels[i].RunUntil(end)
				elapsed[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	for i, d := range elapsed {
		g.busy[i] += d
		if d > max {
			max = d
		}
	}
	g.epochMax += max
}

// BusyTimes returns per-kernel cumulative wall-clock execution time — a
// load-balance diagnostic for partition quality.
func (g *ShardGroup) BusyTimes() []time.Duration {
	out := make([]time.Duration, len(g.busy))
	copy(out, g.busy)
	return out
}

// CriticalPath returns the accumulated per-epoch maximum shard
// execution time: the wall-clock a run would take with one core per
// shard and free barriers. TotalBusy/CriticalPath bounds the achievable
// parallel speedup on sufficiently many cores.
func (g *ShardGroup) CriticalPath() time.Duration { return g.epochMax }

// TotalBusy returns the summed execution time across shards — the
// serial-equivalent wall-clock cost of the run.
func (g *ShardGroup) TotalBusy() time.Duration {
	var t time.Duration
	for _, d := range g.busy {
		t += d
	}
	return t
}
