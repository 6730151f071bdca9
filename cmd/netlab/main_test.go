package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// quickstart returns examples/quickstart.nl, the README's "Scriptable
// CLI" script.
func quickstart(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../examples/quickstart.nl")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunReadmeScript(t *testing.T) {
	const want = `a: reply from b seq=0 rtt=4.12ms
a: reply from b seq=1 rtt=4.12ms
a: reply from b seq=2 rtt=4.12ms
t=2.000s
transfer a->b:80 started (976.56 KiB)
t=12.000s
a->b:80: 976.56 KiB / 976.56 KiB (100.0%)
routes at a:
10.1.0.0/24        direct           if0 metric 0 (direct)
10.2.0.0/24        via 10.1.0.2     if0 metric 1 (static)
`
	script := quickstart(t)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(readme), "## Scriptable CLI")
	_, block, _ = strings.Cut(block, "<<'EOF'\n")
	if block, _, _ = strings.Cut(block, "\nEOF\n"); block+"\n" != script {
		t.Fatalf("README's Scriptable CLI script is not examples/quickstart.nl:\n%s", block)
	}
	var out strings.Builder
	if err := run(1, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestRunStopsAtTheBadLine: a value that does not convert is the line's
// error, not a zero — rate=abc used to build an infinitely fast link.
func TestRunStopsAtTheBadLine(t *testing.T) {
	readme := quickstart(t)
	for script, want := range map[string]string{
		"net a 10.1.0.0/24 lan rate=abc":                "line 1: net option rate=abc: not an integer",
		"# links\n\nnet a 10.1.0.0/24 lan mtu=x":        "line 3: net option mtu=x: not an integer",
		"net a 10.1.0.0/24 lan loss=x":                  "line 1: net option loss=x: not a finite number",
		"net a 10.1.0.0/24 lan queue=x":                 "line 1: net option queue=x: not an integer",
		"net a 10.1.0.0/24 lan mtu=576 mtu=1500":        "line 1: net option mtu=1500: key given twice",
		"net a 10.1.0.0/24 lan\nhost h a\nping h h x":   `line 3: bad count "x": not an integer`,
		readme + "transfer a b lots 81":                 `line 13: bad bytes "lots": not an integer`,
		readme + "transfer a b 1000 99999":              `line 13: bad port "99999": not in 1..65535`,
		readme + "transfer a b 1000 80":                 `line 13: transfer: listen on b port 80: tcp: port in use`,
		"host h nowhere":                                `line 1: core: unknown net "nowhere"`,
		"net a 10.1.0.0/24 lan delay=1ms\nfrobnicate a": `line 2: unknown command "frobnicate"`,
	} {
		var out strings.Builder
		if err := run(1, strings.NewReader(script), &out); err == nil || err.Error() != want {
			t.Errorf("script %q: error %v, want %q", script, err, want)
		}
	}
}

// TestTransfersPrintInStartOrder: the report used to range over a map.
func TestTransfersPrintInStartOrder(t *testing.T) {
	script := quickstart(t)
	for _, port := range []string{"85", "81", "84", "82", "83"} {
		script += "transfer b a 1000 " + port + "\n"
	}
	var out strings.Builder
	if err := run(1, strings.NewReader(script+"run 1s\ntransfers\n"), &out); err != nil {
		t.Fatal(err)
	}
	_, report, _ := strings.Cut(out.String(), "t=13.000s\n")
	const want = `a->b:80: 976.56 KiB / 976.56 KiB (100.0%)
b->a:85: 1000 B / 1000 B (100.0%)
b->a:81: 1000 B / 1000 B (100.0%)
b->a:84: 1000 B / 1000 B (100.0%)
b->a:82: 1000 B / 1000 B (100.0%)
b->a:83: 1000 B / 1000 B (100.0%)
`
	if report != want {
		t.Fatalf("transfers report:\n%s\nwant:\n%s", report, want)
	}
}

// TestTourUsesEveryCommand: testdata/tour.nl, the script the reach leg
// of scripts/check.sh runs under coverage, uses every command the usage
// comment names and runs to the end, so a new command cannot escape
// the programs that leg runs.
func TestTourUsesEveryCommand(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	tour, err := os.ReadFile("testdata/tour.nl")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, line := range strings.Split(string(tour), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			used[f[0]] = true
		}
	}
	_, usage, _ := strings.Cut(string(src), "// Script language")
	usage, _, _ = strings.Cut(usage, "// Example:")
	n := 0
	for _, line := range strings.Split(usage, "\n") {
		line, ok := strings.CutPrefix(line, "//\t")
		if !ok {
			continue
		}
		for _, alt := range strings.Split(line, " | ") {
			cmd := strings.Fields(alt)[0]
			n++
			if !used[cmd] {
				t.Errorf("the usage comment names %q, which testdata/tour.nl never uses", cmd)
			}
		}
	}
	if n < 20 {
		t.Fatalf("read %d commands from the usage comment", n)
	}
	if err := run(1, strings.NewReader(string(tour)), io.Discard); err != nil {
		t.Fatal(err)
	}
}
