// Package harness runs Monte Carlo campaigns over the reproduction
// experiments: N independent replicas of one experiment, each on its own
// isolated simulation kernel with a deterministically derived seed
// (base + replica index), executed by a pool of workers. Per-metric
// samples from the replicas are aggregated into mean / stddev / 95%
// confidence interval / percentiles, turning each single-seed anecdote
// into a measurement — the Monte Carlo fault-scenario methodology of
// survivable-network analysis applied to the paper's claims.
//
// Replicas are plain `func(seed int64) exp.Result` values; because every
// experiment builds its whole world (kernel, topology, workload) from
// the seed, replicas share no state and the campaign parallelises
// freely. Aggregation happens in replica-index order after all replicas
// finish, so the report — including its JSON rendering — is byte
// identical regardless of worker count.
package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"darpanet/internal/exp"
)

// Campaign configures one Monte Carlo sweep.
type Campaign struct {
	// Runs is the number of replicas (default 1).
	Runs int
	// Parallel is the worker-pool size (default 1, capped at Runs).
	// Parallelism never changes results, only wall time.
	Parallel int
	// BaseSeed seeds replica i with BaseSeed + int64(i).
	BaseSeed int64
	// OnReplicaDone, when set, observes live progress: it is invoked
	// once per finished replica, serially from the calling goroutine,
	// with the number finished so far and the total.
	OnReplicaDone func(done, total int)
}

// replica is one finished run: its result, or the panic that ended it.
type replica struct {
	result exp.Result
	err    error
}

// RunExperiment executes the campaign for one registered experiment and
// counts the replicas whose result holds its claim.
func (c Campaign) RunExperiment(e exp.Experiment) *Report {
	var held atomic.Int64
	rep := c.RunFunc(e.ID, e.Title, func(seed int64) exp.Result {
		r := e.Run(seed)
		if e.Claim(r) == nil {
			held.Add(1)
		}
		return r
	})
	rep.Held = int(held.Load())
	return rep
}

// RunFunc executes the campaign for any seeded experiment function and
// aggregates the replicas into a Report.
func (c Campaign) RunFunc(id, title string, run func(seed int64) exp.Result) *Report {
	runs := c.Runs
	if runs < 1 {
		runs = 1
	}
	workers := c.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > runs {
		workers = runs
	}

	replicas := make([]replica, runs)
	jobs := make(chan int)
	finished := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				replicas[i] = runReplica(run, c.BaseSeed+int64(i))
				finished <- i
			}
		}()
	}
	go func() {
		for i := 0; i < runs; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(finished)
	}()
	// Progress is observed here, on the caller's goroutine, so
	// OnReplicaDone needs no locking of its own.
	done := 0
	for range finished {
		done++
		if c.OnReplicaDone != nil {
			c.OnReplicaDone(done, runs)
		}
	}

	return c.aggregate(id, title, replicas)
}

// runReplica executes one seeded run, converting a panic (some drivers
// assert invariants by panicking) into a recorded failure instead of
// taking the whole campaign down.
func runReplica(run func(seed int64) exp.Result, seed int64) (r replica) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("replica panicked: %v", p)
		}
	}()
	r.result = run(seed)
	return r
}
