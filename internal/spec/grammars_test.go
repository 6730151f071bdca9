package spec_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"darpanet/internal/phys"
	"darpanet/internal/topo"
	"darpanet/internal/workload"
)

// parse runs one of the three grammars built on the binder.
func parse(grammar, text string) (fmt.Stringer, error) {
	switch grammar {
	case "topo":
		return topo.ParseSpec(text)
	case "workload":
		return workload.ParseSpec(text)
	case "policy":
		return phys.ParsePolicySpec(text)
	}
	return nil, fmt.Errorf("no grammar %q", grammar)
}

var updateLiterals = flag.Bool("update", false, "rewrite testdata/literals.tsv from what the grammars do now")

// TestTreeLiteralsParseAsRecorded holds every spec literal the tree
// spells — README, EXPERIMENTS.md, DESIGN.md, check.sh, bench/, the
// tests, including the ones the tests expect to be refused — to what the
// hand-written parsers made of it: testdata/literals.tsv was recorded on
// the commit before the binder (grammar, literal, then String() and the
// %#v value, or "error"). A literal added to the tree is added there;
// -update rewrites the last two columns.
func TestTreeLiteralsParseAsRecorded(t *testing.T) {
	const file = "testdata/literals.tsv"
	recorded, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var now strings.Builder
	for _, row := range strings.Split(strings.TrimSuffix(string(recorded), "\n"), "\n") {
		col := strings.SplitN(row, "\t", 3)
		if len(col) < 2 {
			t.Fatalf("%s: row %q has no literal", file, row)
		}
		line := col[0] + "\t" + col[1] + "\terror"
		if v, err := parse(col[0], col[1]); err == nil {
			line = fmt.Sprintf("%s\t%s\t%s\t%#v", col[0], col[1], v, v)
		}
		if line != row && !*updateLiterals {
			t.Errorf("recorded: %s\n     now: %s", row, line)
		}
		now.WriteString(line + "\n")
	}
	if *updateLiterals {
		if err := os.WriteFile(file, []byte(now.String()), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGrammarsRefuseNonFiniteAndRepeatedKeys: each of these was accepted
// before the binder — a NaN passes every range comparison, a repeated key
// silently meant its last value, and min=1e300 wrapped to the smallest
// int, which only validate happened to catch — or after it: a negative
// think time round-trips, so the fuzzer could not see it.
func TestGrammarsRefuseNonFiniteAndRepeatedKeys(t *testing.T) {
	for _, tc := range []struct{ grammar, text, want string }{
		{"workload", "rate=NaN", "rate=NaN: not a finite number"},
		{"workload", "bulk=NaN", "bulk=NaN: not a finite number"},
		{"workload", "alpha=Inf", "alpha=Inf: not a finite number"},
		{"workload", "think_ms=NaN", "think_ms=NaN: not an integer"},
		{"workload", "think_ms=-250", "think_ms=-250: want a think time of 0 ms or more"},
		{"workload", "vj=NaN", "vj=NaN: want one of 0, 1"},
		{"workload", "min=1e300", "min=1e300: not an integer"},
		{"workload", "bulk=1,bulk=2", "bulk=2: key given twice"},
		{"topo", "waxman:alpha=NaN", "alpha=NaN: not a finite number"},
		{"topo", "waxman:beta=Inf", "beta=Inf: not a finite number"},
		{"topo", "ring:gw=4,gw=5", "gw=5: key given twice"},
		{"policy", "red:maxp=NaN", "maxp=NaN: not a finite number"},
		{"policy", "red:wq=NaN", "wq=NaN: not a finite number"},
	} {
		_, err := parse(tc.grammar, tc.text)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), tc.grammar+": ") {
			t.Errorf("%s %q: error %v, want %q: …%s", tc.grammar, tc.text, err, tc.grammar, tc.want)
		}
	}
}
