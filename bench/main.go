// Command bench measures the simulated internet end to end and layer by
// layer. See README.md in this directory; BENCHMARK.json at the root of
// the repository is the contract it is run under.
//
//	bash bench/run.sh -seed 1988                      every workload, untraced then traced
//	bash bench/run.sh -workload collapse_mix -trace 1 one run of one workload
//	bash bench/run.sh -compare a.json b.json          two result sets against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"darpanet/bench/internal/drive"
)

const (
	// setupsPerRun is how many times the untraced pass sets up; setup_s
	// is the median, so one slow build does not decide it.
	setupsPerRun = 3
	// contractFile holds the bounds -compare judges against. run.sh runs
	// the program from the repository root, where it lives.
	contractFile = "BENCHMARK.json"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed     = flag.Int64("seed", 1988, "seed for every generator")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: traced pass (per-layer metrics); 0: untraced pass (end-to-end metrics)")
		outDir   = flag.String("out", "out", "directory for result.json and trace.json")
		compare  = flag.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files, got %d", flag.NArg())
			break
		}
		err = runCompare(os.Stdout, contractFile, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
			workers: runtime.NumCPU(), setups: setupsPerRun, sz: fullSizes}
		if cfg.trace {
			cfg.probes = drive.Probes(cfg.seed, cfg.workers)
		}
		err = runOne(cfg, *outDir)
	default:
		err = runAll(*seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
