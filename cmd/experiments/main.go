// Command experiments runs the darpanet reproduction experiments (E1–E16
// and the E13-T tournament: one per architectural claim of Clark's 1988
// design-philosophy paper, then scale, congestion collapse,
// survivability, naming and the sharded kernel on generated internets)
// and prints their tables. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results.
//
// With -runs N (N > 1) each experiment becomes a Monte Carlo campaign:
// N replicas run on seeds base..base+N-1 — in parallel across -parallel
// workers — and every metric is reported as mean ± 95% CI. Parallelism
// never changes results, only wall time.
//
// -scenario 'key=val;...' (exp.Params' text form; -h lists the keys)
// reshapes every selected experiment that takes a key and titles it. A
// key no selected experiment takes is an error, as is an unknown -only
// id, a -runs or -parallel count below 1, or -metrics (one run's counter
// tree) with -runs above 1.
//
// -export kind=file (repeatable) writes machine-readable JSON after the
// run: campaign (every selected experiment, darpanet/campaign/v1),
// leaderboard (E13-T ranked, darpanet/tournament/v2), survive (E14
// frontier, darpanet/survive/v1) or names (E15 per-mode summary,
// darpanet/names/v1). The exit status is 1 if any replica failed.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"darpanet/internal/exp"
	"darpanet/internal/harness"
)

// options is one parsed command line.
type options struct {
	seed           int64
	runs, parallel int
	metrics        bool
	selected       []exp.Experiment // in paper order, already reshaped by -scenario
	exports        [][2]string      // (kind, file) in command-line order
}

// exportKinds maps an -export kind to the experiment whose campaign it
// distills and the builder returning the document plus one summary line
// per row. "campaign" distills nothing: it is the whole suite.
var exportKinds = map[string]struct {
	from  string
	build func(*harness.Report) (doc any, rows []string)
}{
	"campaign": {},
	"leaderboard": {"E13-T", func(rep *harness.Report) (any, []string) {
		t := harness.BuildTournament(rep)
		var rows []string
		for _, e := range t.Entries {
			rows = append(rows, fmt.Sprintf("  #%d %-28s score %.3f (collapse %.2f, peak %.2f Mb/s, jain %.3f)",
				e.Rank, e.Name, e.Score, e.CollapseRatio, e.PeakGoodputBps/1e6, e.Jain))
		}
		return t, rows
	}},
	"survive": {"E14", func(rep *harness.Report) (any, []string) {
		f := harness.BuildFrontier(rep)
		var rows []string
		for _, r := range f.Rows {
			rows = append(rows, fmt.Sprintf("  %-8s %5.1f%% lost: goodput %.2f of baseline, %.1f partitions, largest %.2f",
				r.Mode, r.LostPct, r.GoodputFrac, r.Partitions, r.LargestFrac))
		}
		return f, rows
	}},
	"names": {"E15", func(rep *harness.Report) (any, []string) {
		n := harness.BuildNames(rep)
		var rows []string
		for _, r := range n.Rows {
			rows = append(rows, fmt.Sprintf("  %-5s continuity %.3f (p50 %.1fms, p90 %.1fms, cache hit %.2f, %d attempts)",
				r.Mode, r.Continuity, r.ResolveP50, r.ResolveP90, r.CacheHit, int(r.Attempts)))
		}
		return n, rows
	}},
}

// flagSet declares the seven flags over the values they fill. The
// -scenario help is the scenario table's own.
func flagSet(o *options, p *exp.Params, only *string) *flag.FlagSet {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.Int64Var(&o.seed, "seed", 1988, "base simulation seed (replica i runs on seed+i)")
	fs.StringVar(only, "only", "", "comma-separated experiment IDs to run (default: all)")
	fs.IntVar(&o.runs, "runs", 1, "replicas per experiment (a Monte Carlo campaign when > 1)")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "campaign worker-pool size (affects wall time only, never results)")
	fs.BoolVar(&o.metrics, "metrics", false, "after a single run's table, dump the per-layer counter registry as a tree (an error with -runs > 1)")
	fs.Func("export", "`kind=file`: write JSON after the run; kinds: campaign, leaderboard (E13-T), survive (E14), names (E15); repeatable", func(s string) error {
		kind, file, ok := strings.Cut(s, "=")
		if _, known := exportKinds[kind]; !ok || !known || file == "" {
			return errors.New("want kind=file with kind one of campaign, leaderboard, survive, names")
		}
		o.exports = append(o.exports, [2]string{kind, file})
		return nil
	})
	fs.Func("scenario", "`key=val;...`: reshape every selected experiment that takes a key; the keys:\n"+exp.Usage(),
		func(s string) error { return p.Fields().ParseSep(s, ";") })
	return fs
}

// parseArgs turns a command line into options: flags parsed, -only
// resolved against the registry, and the scenario bound to every
// selected experiment that takes its keys. Like the flag package's own
// command line it exits on a value a flag's parser rejects (and on -h);
// what it returns as an error is what only the registry can judge, a
// count below 1, and -metrics on a campaign.
func parseArgs(args []string) (options, error) {
	var o options
	var p exp.Params
	var only string
	flagSet(&o, &p, &only).Parse(args)
	for name, n := range map[string]int{"-runs": o.runs, "-parallel": o.parallel} {
		if n < 1 {
			return o, fmt.Errorf("%s %d: want a count of at least 1", name, n)
		}
	}
	if o.metrics && o.runs > 1 {
		return o, fmt.Errorf("-metrics with -runs %d: the counter tree is one run's (a campaign reports counters as ctr/ metrics)", o.runs)
	}

	want := map[string]bool{}
	for _, id := range strings.FieldsFunc(strings.ToUpper(only), func(r rune) bool { return r == ',' || r == ' ' }) {
		if _, ok := exp.ByID(id); !ok {
			valid := make([]string, len(exp.All))
			for i, e := range exp.All {
				valid[i] = e.ID
			}
			return o, fmt.Errorf("-only: unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	unused := p.Fields().Shown()
	for _, e := range exp.All {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		unused = slices.DeleteFunc(unused, e.Takes)
		e, err := e.With(p)
		if err != nil {
			return o, err
		}
		o.selected = append(o.selected, e)
	}
	if len(unused) > 0 {
		return o, fmt.Errorf("%s: no selected experiment takes it", unused[0])
	}
	return o, nil
}

// run executes the selected experiments, prints their reports to stdout
// (campaign progress to stderr) and writes the exports. Replica failures
// do not stop the run — the exports are still written — but they are
// its error.
func run(o options, stdout, stderr io.Writer) error {
	fmt.Fprintf(stdout, "darpanet experiment suite — base seed %d, %d run(s) per experiment\n", o.seed, o.runs)
	fmt.Fprintf(stdout, "reproducing: Clark, \"The Design Philosophy of the DARPA Internet Protocols\", SIGCOMM 1988\n\n")

	var reports []*harness.Report
	failed := 0
	for _, e := range o.selected {
		start := time.Now()
		c := harness.Campaign{Runs: o.runs, Parallel: o.parallel, BaseSeed: o.seed}
		if o.runs > 1 {
			c.OnReplicaDone = func(done, total int) {
				fmt.Fprintf(stderr, "\r%s: %d/%d replicas", e.ID, done, total)
				if done == total {
					fmt.Fprintln(stderr)
				}
			}
		}
		rep := c.RunExperiment(e)
		reports = append(reports, rep)

		if o.runs <= 1 {
			// Single run: the classic table report.
			if rep.First != nil {
				fmt.Fprintln(stdout, rep.First.String())
				if o.metrics {
					fmt.Fprintf(stdout, "counters:\n%s\n", rep.First.Counters().Tree())
				}
			}
		} else {
			// Campaign: aggregate every metric as mean ± 95% CI.
			fmt.Fprintf(stdout, "%s — %s\n", rep.ID, rep.Title)
			fmt.Fprintf(stdout, "campaign: %d runs, seeds %d..%d, %d workers\n\n",
				rep.Runs, rep.BaseSeed, rep.BaseSeed+int64(rep.Runs)-1, o.parallel)
			tbl := rep.Table()
			fmt.Fprintln(stdout, tbl.String())
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(stdout, "FAILED replica seed %d: %s\n", f.Seed, f.Error)
		}
		failed += len(rep.Failures)
		fmt.Fprintf(stdout, "(%s wall time: %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}

	for _, x := range o.exports {
		kind, file := exportKinds[x[0]], x[1]
		var buf bytes.Buffer
		var rows []string
		var err error
		if kind.build == nil {
			err = harness.WriteJSON(&buf, o.seed, o.runs, reports)
		} else if i := slices.IndexFunc(reports, func(r *harness.Report) bool { return r.ID == kind.from }); i < 0 {
			err = fmt.Errorf("no %s campaign in this run", kind.from)
		} else {
			var doc any
			doc, rows = kind.build(reports[i])
			err = harness.WriteDocument(&buf, doc)
		}
		if err == nil {
			err = os.WriteFile(file, buf.Bytes(), 0o666)
		}
		if err != nil {
			return fmt.Errorf("-export %s: %v", x[0], err)
		}
		fmt.Fprintf(stdout, "wrote %s (%s)\n", file, x[0])
		for _, row := range rows {
			fmt.Fprintln(stdout, row)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d replica(s) failed", failed)
	}
	return nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == nil {
		err = run(o, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
