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
// Observers (At) are the group's other barrier: each runs
// single-threaded at exactly its simulated time, with every kernel
// stopped there, so it may read and change any region. An observer due
// inside an epoch splits it without moving the lookahead grid or the
// exchange, so a run with nothing due keeps its exact barrier sequence.
//
// Workers only controls how many goroutines execute the (mutually
// independent) kernels within an epoch. The epoch schedule, each
// kernel's event order, and the barrier exchange order are all fixed by
// the lookahead, the observers and the exchange callback — results are
// byte-identical at any worker count by construction, the same invariant
// the campaign harness pins for replica workers.
type ShardGroup struct {
	kernels   []*Kernel
	lookahead Duration
	workers   int
	exchange  func()
	now       Time

	// due holds the observers, as events on a kernel of their own; each
	// also leaves a marker in every region kernel that halts it there.
	due *Kernel

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
// lookahead must be positive — math.MaxInt64 sets no bound, so epochs
// end only at deadlines and observers; workers is clamped to
// [1, len(kernels)].
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
		due:       &Kernel{now: kernels[0].Now()},
		busy:      make([]time.Duration, len(kernels)),
		elapsed:   make([]time.Duration, len(kernels)),
	}
}

// At registers fn to run at simulated instant t (at the current instant,
// if t has passed), single-threaded, with every kernel stopped at t. It
// is ordered against each kernel's own events at t as an event scheduled
// now would be: after those already queued, before any queued later.
// Observers due at one instant run in registration order, and one may
// register another. Call it between runs or from an observer — never
// from a kernel event, which may be running beside other kernels.
func (g *ShardGroup) At(t Time, fn func()) {
	t = max(t, g.now)
	for _, k := range g.kernels {
		k.At(t, k.Halt)
	}
	g.due.At(t, fn)
}

// SetExchange installs the barrier callback. It runs single-threaded
// between epochs, after every kernel has reached the epoch deadline; it
// and the observers are the only places cross-kernel state may move.
func (g *ShardGroup) SetExchange(fn func()) {
	if fn == nil {
		fn = func() {}
	}
	g.exchange = fn
}

// Now returns the group's common simulated time: the last barrier, or
// the instant of the observer running.
func (g *ShardGroup) Now() Time { return g.now }

// Lookahead returns the epoch length.
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// Kernels returns the region kernels in fixed order.
func (g *ShardGroup) Kernels() []*Kernel { return g.kernels }

// RunFor advances all shards by d of simulated time.
func (g *ShardGroup) RunFor(d Duration) Time { return g.RunUntil(g.now.Add(d)) }

// RunUntil advances all shards to deadline in lookahead-bounded epochs,
// running each observer as it falls due and exchanging cross-shard
// traffic once every kernel has finished the epoch's last instant. On
// return every kernel's clock equals deadline.
func (g *ShardGroup) RunUntil(deadline Time) Time {
	for g.now < deadline {
		end := deadline
		if g.lookahead < deadline.Sub(g.now) { // no overflow without a bound
			end = g.now.Add(g.lookahead)
		}
		for len(g.due.heap) > 0 && g.due.heap[0].at <= end {
			g.now = g.due.heap[0].at
			g.runEpoch(g.now) // every kernel halts at the observer's marker
			g.due.Step()
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
	if g.workers == 1 {
		for i := range g.kernels {
			g.runKernel(i, end)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(g.workers)
		for w := 0; w < g.workers; w++ {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(g.kernels); i = int(next.Add(1)) - 1 {
					g.runKernel(i, end)
				}
			}()
		}
		wg.Wait()
	}
	var longest time.Duration
	for i, d := range g.elapsed {
		g.busy[i] += d
		longest = max(longest, d)
	}
	g.epochMax += longest
}

// runKernel runs kernel i up to end and times it into elapsed[i], which
// every epoch rewrites.
func (g *ShardGroup) runKernel(i int, end Time) {
	t0 := time.Now()
	g.kernels[i].RunUntil(end)
	g.elapsed[i] = time.Since(t0)
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
