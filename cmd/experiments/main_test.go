package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"darpanet/internal/exp"
	"darpanet/internal/fault"
	"darpanet/internal/phys"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// TestParseArgsSelectsAndBinds: -only is case-insensitive and keeps
// paper order, and one scenario key reshapes every selected experiment
// that takes it.
func TestParseArgsSelectsAndBinds(t *testing.T) {
	o, err := parseArgs([]string{"-only", "e14, E12,E1", "-scenario", "topo=waxman:gw=16", "-runs", "3", "-export", "campaign=c.json"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.selected) != 3 || o.selected[0].ID != "E1" || o.selected[1].ID != "E12" || o.selected[2].ID != "E14" {
		t.Fatalf("selected = %+v", o.selected)
	}
	e1, _ := exp.ByID("E1")
	if o.selected[0].Title != e1.Title {
		t.Fatalf("E1 takes no topo but its title became %q", o.selected[0].Title)
	}
	for _, e := range o.selected[1:] {
		if !strings.HasSuffix(e.Title, " [topo=waxman:gw=16,alpha=0.25,beta=0.4,hosts=1,mix=1]") {
			t.Fatalf("%s title %q does not record the topo key", e.ID, e.Title)
		}
	}
	if o.runs != 3 || len(o.exports) != 1 || o.exports[0] != [2]string{"campaign", "c.json"} {
		t.Fatalf("options = %+v", o)
	}
}

// TestParseArgsFailsLoudly: an unknown experiment id, a scenario key
// that no selected experiment takes, a count below 1 and -metrics on a
// campaign are errors that name the culprit — none may run a partial
// suite, or one replica for none, or drop a flag, and exit 0. (A value its grammar refuses exits 2 in the flag
// parser; exp.TestParseParamsRefuses holds those.)
func TestParseArgsFailsLoudly(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-only", "E1,E99"}, []string{`"E99"`, "E13-T", "E16"}},
		{[]string{"-only", "E12", "-scenario", "fracs=10"}, []string{"fracs: no selected experiment takes it"}},
		{[]string{"-only", "E13", "-scenario", "cc=reno;topo=ring:gw=4"}, []string{"topo: no selected"}},
		{[]string{"-only", "E1", "-runs", "0"}, []string{"-runs 0"}},
		{[]string{"-only", "E1", "-parallel", "-1"}, []string{"-parallel -1"}},
		{[]string{"-only", "E11", "-runs", "2", "-metrics"}, []string{"-metrics", "-runs 2"}},
	} {
		_, err := parseArgs(tc.args)
		if err == nil {
			t.Fatalf("%v: accepted", tc.args)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%v: error %q does not mention %q", tc.args, err, w)
			}
		}
	}
}

// TestRunReportsReplicaFailures: a replica that panics is the run's
// error — after the exports are written, so the numbers of the
// experiments that ran clean are not lost.
func TestRunReportsReplicaFailures(t *testing.T) {
	file := filepath.Join(t.TempDir(), "c.json")
	sched, err := fault.Parse("gwz", "10s crash gwZ\n")
	if err != nil {
		t.Fatal(err)
	}
	e11, _ := exp.ByID("E11")
	broken, err := e11.With(exp.Params{Faults: &sched})
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := exp.ByID("E8")
	o := options{seed: 1, runs: 2, parallel: 1, exports: [][2]string{{"campaign", file}}, selected: []exp.Experiment{broken, clean}}
	var stdout bytes.Buffer
	err = run(o, &stdout, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "2 replica(s) failed") {
		t.Fatalf("run error = %v, want both failed replicas counted", err)
	}
	if !strings.Contains(stdout.String(), "FAILED replica seed 1: replica panicked: fault: step") {
		t.Fatalf("stdout does not report the failure:\n%s", stdout.String())
	}
	doc, rerr := os.ReadFile(file)
	if rerr != nil || !strings.Contains(string(doc), `"failures"`) || !strings.Contains(string(doc), `"id": "E8"`) {
		t.Fatalf("campaign export not written with the failures and E8's numbers: %v", rerr)
	}

	o.selected = o.selected[1:]
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}

// TestFaultsNamingAMissingNodeFail: a faults= schedule file whose step names
// a gateway E11's internet does not have fails its replica with the step
// in the message — and the run, so the CLI exits 1 — before any step
// fires.
func TestFaultsNamingAMissingNodeFail(t *testing.T) {
	file := filepath.Join(t.TempDir(), "gwz.faults")
	if err := os.WriteFile(file, []byte("5s cut n1\n10s crash gwZ\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs([]string{"-only", "E11", "-scenario", "faults=" + file})
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err = run(o, &stdout, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "1 replica(s) failed") {
		t.Fatalf("run error = %v, want the failed replica counted", err)
	}
	if want := `fault: step "10s crash gwZ": no node gwZ in the internet`; !strings.Contains(stdout.String(), want) {
		t.Fatalf("stdout does not carry %q:\n%s", want, stdout.String())
	}
}

// TestMetricsTreeAsDocumented: -only E11 -metrics prints the counter
// tree after the table, and the values EXPERIMENTS.md § Reading the
// counters annotates are the ones it prints at seed 1988.
func TestMetricsTreeAsDocumented(t *testing.T) {
	o, err := parseArgs([]string{"-only", "E11", "-metrics"})
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run(o, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	_, tree, ok := strings.Cut(stdout.String(), "\ncounters:\n")
	if !ok {
		t.Fatalf("no counter tree after the table:\n%s", stdout.String())
	}
	// Read the tree back into paths: a line ending in "/" opens a
	// directory at its indent, any other line is a leaf and its value.
	got := map[string]string{}
	var dirs []string
	for _, line := range strings.Split(tree, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			break
		}
		depth := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		dirs = dirs[:depth]
		if name, ok := strings.CutSuffix(fields[0], "/"); ok && len(fields) == 1 {
			dirs = append(dirs, name)
		} else {
			got[strings.Join(append(dirs, fields[0]), "/")] = fields[1]
		}
	}
	for path, want := range map[string]string{
		"h1.if0/nic/tx_frames":  "7668",
		"h1.if0/nic/rx_frames":  "3918",
		"h1/tcp/bytes_sent":     "4000000",
		"h1/tcp/bytes_retrans":  "36448",
		"h1/tcp/retransmits":    "68",
		"gwA/ip/forwarded":      "11314",
		"gwA/rip/route_changes": "15",
		"n1/medium/lost_down":   "53",
	} {
		if got[path] != want {
			t.Errorf("%s = %q, want %q", path, got[path], want)
		}
	}
}

// TestHelpSync (check.sh help-sync) keeps the hand-readable lists from
// going stale again: -scenario's help has a line for every scenario key,
// and that line names every key, shape, policy kind and congestion
// response of the grammar its value is written in, as the unknown-shape
// error names every shape; and README's flag section names every flag
// -h prints.
func TestHelpSync(t *testing.T) {
	fs := flagSet(new(options), new(exp.Params), new(string))
	usage := fs.Lookup("scenario").Usage
	line := map[string]string{}
	for _, l := range strings.Split(usage, "\n") {
		key, _, _ := strings.Cut(l, "=")
		line[key] = l
	}
	for _, key := range new(exp.Params).Fields().Keys() {
		if line[key] == "" {
			t.Errorf("-scenario help has no line for key %q:\n%s", key, usage)
		}
	}
	for key, words := range map[string][]string{
		"topo": new(topo.Spec).Fields().Keys(), "workload": new(workload.Spec).Fields().Keys(), "qdisc": new(phys.PolicySpec).Fields().Keys(),
	} {
		for _, w := range words {
			if !regexp.MustCompile(`[ ,]` + w + `[,)]`).MatchString(line[key]) {
				t.Errorf("-scenario help for %s does not list its key %q: %s", key, w, line[key])
			}
		}
	}
	_, unknown := topo.ParseSpec("blob")
	for key, kinds := range map[string][]string{"topo": topo.ShapeNames(), "cc": tcp.CCNames(), "qdisc": phys.PolicyKinds(), "faults": fault.PresetNames()} {
		for _, kind := range kinds {
			if !regexp.MustCompile(`[ (|]` + kind + `[,;|)[]`).MatchString(line[key]) {
				t.Errorf("-scenario help for %s does not list %q: %s", key, kind, line[key])
			}
			if key == "topo" && !strings.Contains(unknown.Error(), kind) {
				t.Errorf("the unknown-shape error does not list %q: %v", kind, unknown)
			}
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "Seven flags:")
	section, _, _ = strings.Cut(section, "A taste of the API")
	fs.VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile("[`( ]-" + f.Name + "[` )]").MatchString(section) {
			t.Errorf("README's flag section does not mention -%s", f.Name)
		}
	})
}

// TestE16CampaignAtAnyWorkerCount (check.sh smoke-E16) is the
// conservative-sync acceptance check at full scale: the campaign export
// of E16's recorded 2000-gateway scenario is byte-identical at 1 and 4
// workers.
func TestE16CampaignAtAnyWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 2000-gateway internet twice")
	}
	sameExportAtWorkers(t, []string{"-only", "E16"}, "campaign", 1, 4)
}

// TestE15NamesAtAnyWorkerCount (check.sh smoke-E15): the names export
// of a two-replica E15 campaign is byte-identical at 1 and 2 workers,
// though directory traffic crosses the region seams.
func TestE15NamesAtAnyWorkerCount(t *testing.T) {
	sameExportAtWorkers(t, []string{"-only", "E15", "-runs", "2"}, "names", 1, 2)
}

// sameExportAtWorkers runs the command line args at seed 1988 with the
// selected experiments' Params.Shards set to each worker count, and
// fails unless every run writes the same kind export.
func sameExportAtWorkers(t *testing.T, args []string, kind string, workers ...int) {
	t.Helper()
	var want []byte
	for _, w := range workers {
		file := filepath.Join(t.TempDir(), kind+".json")
		o, err := parseArgs(append([]string{"-seed", "1988", "-export", kind + "=" + file}, args...))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range o.selected {
			if o.selected[i], err = e.With(exp.Params{Shards: w}); err != nil {
				t.Fatal(err)
			}
		}
		if err := run(o, io.Discard, io.Discard); err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("the %s export at %d workers differs from the one at %d", kind, w, workers[0])
		}
	}
}
