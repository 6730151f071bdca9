package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// environment records where a result set was measured.
type environment struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// resultSet is result.json: one or more workload runs and where they ran.
type resultSet struct {
	Schema    string            `json:"schema"`
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

const resultSchema = "darpanet/bench/v1"

func environmentNow(seed int64, seconds float64) environment {
	env := environment{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Go: runtime.Version(),
		Commit: "unknown", Seed: seed, Seconds: seconds}
	// The VCS stamp is present when the binary was built inside a git
	// checkout; the acceptance checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

var errFailedOps = errors.New("some operations failed")

// runOne is the single-workload mode: this process is the workload's
// own, so its peak RSS, GC state and heap layout are that workload's
// alone. The last line of standard output is the contract's JSON object.
func runOne(cfg runConfig, outDir string) error {
	res, spans, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	report(os.Stdout, res)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	set := resultSet{Schema: resultSchema, Env: environmentNow(cfg.seed, cfg.seconds), Workloads: []*workloadResult{res}}
	if err := writeJSONFile(filepath.Join(outDir, "result.json"), set); err != nil {
		return err
	}
	if cfg.trace {
		if err := writeJSONFile(filepath.Join(outDir, "trace.json"), spans); err != nil {
			return err
		}
	}
	fmt.Println(resultLine(res))
	if res.Failed > 0 {
		return errFailedOps
	}
	return nil
}

// runAll runs every workload, untraced then traced, one child process
// after another — never two at once, so they do not compete for the
// cores — and merges what they wrote.
func runAll(seed int64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Schema: resultSchema, Env: environmentNow(seed, seconds)}
	var spans []span
	failed := false
	fmt.Printf("bench: seed=%d seconds=%g GOMAXPROCS=%d nproc=%d %s commit=%s\n",
		seed, seconds, set.Env.GOMAXPROCS, set.Env.NProc, set.Env.Go, set.Env.Commit)
	for _, wd := range workloadDefs {
		var passes [2]*workloadResult
		for trace := 0; trace <= 1; trace++ {
			dir := filepath.Join(outDir, fmt.Sprintf("%s.trace%d", wd.Name, trace))
			cmd := exec.Command(self, "-workload", wd.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-out", dir)
			cmd.Stderr = os.Stderr
			// The child's report is re-printed below from its result
			// file; its own stdout is only needed if it dies.
			out, runErr := cmd.Output()
			var one resultSet
			if err := readJSONFile(filepath.Join(dir, "result.json"), &one); err != nil || len(one.Workloads) != 1 {
				os.Stdout.Write(out)
				return fmt.Errorf("%s trace=%d produced no result (%v, %v)", wd.Name, trace, runErr, err)
			}
			res := one.Workloads[0]
			passes[trace] = res
			set.Workloads = append(set.Workloads, res)
			if trace == 1 {
				var s []span
				if err := readJSONFile(filepath.Join(dir, "trace.json"), &s); err != nil {
					return err
				}
				// Span ids are per child; keep them unique in the merge.
				for i := range s {
					s[i].ID += len(spans)
					if s[i].Parent != 0 {
						s[i].Parent += len(spans)
					}
				}
				spans = append(spans, s...)
			}
			report(os.Stdout, res)
			if res.Failed > 0 {
				failed = true
			}
		}
		// The two passes ran the same seed: iteration i of one must have
		// produced exactly the outcome of iteration i of the other.
		for i := 0; i < len(passes[0].Digests) && i < len(passes[1].Digests); i++ {
			if passes[0].Digests[i] != passes[1].Digests[i] {
				fmt.Printf("  failure: %s iteration %d: untraced digest %s, traced %s\n",
					wd.Name, i, passes[0].Digests[i], passes[1].Digests[i])
				passes[1].Failed++
				passes[1].Failures = append(passes[1].Failures, fmt.Sprintf("iteration %d: digest differs from the untraced pass", i))
				failed = true
				break
			}
		}
	}
	if err := writeJSONFile(filepath.Join(outDir, "result.json"), set); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(outDir, "trace.json"), spans); err != nil {
		return err
	}
	fmt.Printf("bench: wrote %s and %s\n", filepath.Join(outDir, "result.json"), filepath.Join(outDir, "trace.json"))
	if failed {
		return errFailedOps
	}
	return nil
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
