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
	"darpanet/internal/phys"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// TestParseArgsSelectsAndBinds: -only is case-insensitive and keeps
// paper order, and one parameter flag reshapes every selected
// experiment that takes it.
func TestParseArgsSelectsAndBinds(t *testing.T) {
	o, err := parseArgs([]string{"-only", "e14, E12,E1", "-topo", "waxman:gw=16", "-runs", "3", "-export", "campaign=c.json"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.selected) != 3 || o.selected[0].ID != "E1" || o.selected[1].ID != "E12" || o.selected[2].ID != "E14" {
		t.Fatalf("selected = %+v", o.selected)
	}
	e1, _ := exp.ByID("E1")
	if o.selected[0].Title != e1.Title {
		t.Fatalf("E1 takes no -topo but its title became %q", o.selected[0].Title)
	}
	for _, e := range o.selected[1:] {
		if !strings.Contains(e.Title, " [-topo waxman:gw=16,") {
			t.Fatalf("%s title %q does not record -topo", e.ID, e.Title)
		}
	}
	if o.runs != 3 || len(o.exports) != 1 || o.exports[0] != [2]string{"campaign", "c.json"} {
		t.Fatalf("options = %+v", o)
	}
}

// TestParseArgsFailsLoudly: an unknown experiment id, and a parameter
// flag that no selected experiment takes, are errors that name the
// culprit — neither may run a partial suite and exit 0.
func TestParseArgsFailsLoudly(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-only", "E1,E99"}, []string{`"E99"`, "E13-T", "E16"}},
		{[]string{"-only", "E12", "-fracs", "10"}, []string{"-fracs"}},
		{[]string{"-only", "E13", "-topo", "ring:gw=4"}, []string{"-topo"}},
		{[]string{"-only", "E1", "-shards", "2"}, []string{"-shards"}},
		{[]string{"-only", "E13", "-cc", "vegas"}, []string{"vegas"}},
		{[]string{"-only", "E14", "-fracs", "0"}, []string{"(0,1]"}},
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
// error — after the exports are written, so the surviving replicas'
// numbers are not lost.
func TestRunReportsReplicaFailures(t *testing.T) {
	file := filepath.Join(t.TempDir(), "c.json")
	o := options{seed: 1, runs: 2, parallel: 1, exports: [][2]string{{"campaign", file}},
		selected: []exp.Experiment{{ID: "EX", Title: "fails on odd seeds", Run: func(seed int64) exp.Result {
			if seed%2 == 1 {
				panic("boom")
			}
			var r exp.Result
			r.AddMetric("ok", "", 1)
			return r
		}}}}
	var stdout bytes.Buffer
	err := run(o, &stdout, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "1 replica(s) failed") {
		t.Fatalf("run error = %v, want the failed replica counted", err)
	}
	if !strings.Contains(stdout.String(), "FAILED replica seed 1: replica panicked: boom") {
		t.Fatalf("stdout does not report the failure:\n%s", stdout.String())
	}
	if doc, rerr := os.ReadFile(file); rerr != nil || !strings.Contains(string(doc), `"failures"`) {
		t.Fatalf("campaign export not written with the failure recorded: %v", rerr)
	}

	o.selected[0].Run = func(int64) exp.Result { return exp.Result{} }
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}

// TestFaultsNamingAMissingNodeFail: a -faults schedule whose step names
// a gateway E11's internet does not have fails its replica with the step
// in the message — and the run, so the CLI exits 1 — before any step
// fires.
func TestFaultsNamingAMissingNodeFail(t *testing.T) {
	file := filepath.Join(t.TempDir(), "gwz.faults")
	if err := os.WriteFile(file, []byte("5s cut n1\n10s crash gwZ\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	o, err := parseArgs([]string{"-only", "E11", "-faults", file})
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

// TestHelpSync (check.sh help-sync) keeps the hand-readable lists from
// going stale again: -h names every key the three spec grammars accept,
// under the flag that takes it, and every topology shape, congestion
// response and queue policy kind, as the unknown-shape error names every
// shape; and README's flag section names every flag -h prints.
func TestHelpSync(t *testing.T) {
	fs := flagSet(new(options), new(exp.Params), new(string))
	for name, keys := range map[string][]string{
		"topo": new(topo.Spec).Fields().Keys(), "workload": new(workload.Spec).Fields().Keys(), "qdisc": new(phys.PolicySpec).Fields().Keys(),
	} {
		for _, key := range keys {
			if !regexp.MustCompile(`[ ,]` + key + `[,)]`).MatchString(fs.Lookup(name).Usage) {
				t.Errorf("-%s help does not list key %q: %s", name, key, fs.Lookup(name).Usage)
			}
		}
	}
	_, unknown := topo.ParseSpec("blob")
	for name, kinds := range map[string][]string{"topo": topo.ShapeNames(), "cc": tcp.CCNames(), "qdisc": phys.PolicyKinds()} {
		for _, kind := range kinds {
			if !regexp.MustCompile(`[ (|]` + kind + `[,;|)[]`).MatchString(fs.Lookup(name).Usage) {
				t.Errorf("-%s help does not list %q: %s", name, kind, fs.Lookup(name).Usage)
			}
			if name == "topo" && !strings.Contains(unknown.Error(), kind) {
				t.Errorf("the unknown-shape error does not list %q: %v", kind, unknown)
			}
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "Thirteen flags:")
	section, _, _ = strings.Cut(section, "A taste of the API")
	fs.VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile("[`( ]-" + f.Name + "[` )]").MatchString(section) {
			t.Errorf("README's flag section does not mention -%s", f.Name)
		}
	})
}
