package spec

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// target has one member of every field kind.
type target struct {
	N     int
	Rate  int64
	X     float64
	On    bool
	Think time.Duration
	Delay time.Duration
	CC    string
}

func (v *target) fields() Fields {
	return Fields{
		Int("n", &v.N).Where("a positive integer", func() bool { return v.N > 0 }),
		Int("rate", &v.Rate).When(v.Rate != 0),
		Float("x", &v.X),
		Bool("on", &v.On),
		Millis("think_ms", &v.Think),
		Duration("delay", &v.Delay),
		Name("cc", &v.CC, []string{"reno", "tahoe"}).When(v.CC != ""),
	}
}

func TestParseBindsEveryKindAndStringRendersItBack(t *testing.T) {
	var v target
	if err := v.fields().Parse(" n=3, rate=1e6 ,x=.5,on=1,think_ms=250,delay=1.5s,cc=tahoe"); err != nil {
		t.Fatal(err)
	}
	want := target{N: 3, Rate: 1_000_000, X: 0.5, On: true, Think: 250 * time.Millisecond, Delay: 1500 * time.Millisecond, CC: "tahoe"}
	if v != want {
		t.Fatalf("parsed %+v, want %+v", v, want)
	}
	const canon = "n=3,rate=1000000,x=0.5,on=1,think_ms=250,delay=1.5s,cc=tahoe"
	if got := v.fields().String(); got != canon {
		t.Fatalf("String = %q, want %q", got, canon)
	}
	var back target
	if err := back.fields().Parse(canon); err != nil || back != v {
		t.Fatalf("Parse(String) = %+v, %v", back, err)
	}
	// When hides a field from String only; Parse still takes its key.
	v.Rate, v.CC = 0, ""
	if got := v.fields().String(); got != "n=3,x=0.5,on=1,think_ms=250,delay=1.5s" {
		t.Fatalf("String with rate and cc unset = %q", got)
	}
	if got := v.fields().Keys(); !reflect.DeepEqual(got, []string{"n", "rate", "x", "on", "think_ms", "delay", "cc"}) {
		t.Fatalf("Keys = %v", got)
	}
	// Blank text sets nothing.
	before := v
	if err := v.fields().Parse("  "); err != nil || v != before {
		t.Fatalf("Parse(blank) = %+v, %v", v, err)
	}
}

// TestParseRefusesInOneStyle: every refusal is "<term>: <why>" with the
// term quoted whole.
func TestParseRefusesInOneStyle(t *testing.T) {
	for text, want := range map[string]string{
		"n":                        `"n": want key=val`,
		"n=1,":                     `"": want key=val`,
		"bogus=1":                  "bogus=1: unknown key (keys: n, rate, x, on, think_ms, delay, cc)",
		"n=1,x=2,n=3":              "n=3: key given twice",
		"n=abc":                    "n=abc: not an integer",
		"n=2.5":                    "n=2.5: not an integer",
		"n=1e300":                  "n=1e300: not an integer",
		"n=NaN":                    "n=NaN: not an integer",
		"n=0":                      "n=0: want a positive integer",
		"rate=9e18,n=1":            "", // a whole number an int64 holds
		"rate=9223372036854775808": "rate=9223372036854775808: not an integer",
		"x=NaN":                    "x=NaN: not a finite number",
		"x=-Inf":                   "x=-Inf: not a finite number",
		"x=1e999":                  "x=1e999: not a finite number",
		"x=":                       "x=: not a finite number",
		"on=2":                     "on=2: want one of 0, 1",
		"on=true":                  "on=true: want one of 0, 1",
		"think_ms=1.5":             "think_ms=1.5: not an integer",
		"think_ms=1e16":            "think_ms=1e16: not in -9223372036854..9223372036854",
		"delay=5":                  `delay=5: time: missing unit in duration "5"`,
		"cc=vegas":                 "cc=vegas: want one of reno, tahoe",
		"cc=":                      "cc=: want one of reno, tahoe",
	} {
		err := new(target).fields().Parse(text)
		if want == "" && err != nil || want != "" && (err == nil || err.Error() != want) {
			t.Errorf("Parse(%q): error %v, want %q", text, err, want)
		}
	}
}

func TestParseIntBounds(t *testing.T) {
	for _, tc := range []struct {
		s      string
		lo, hi int
		want   int
		ok     bool
	}{
		{"0", 0, 9, 0, true},
		{"9", 0, 9, 9, true},
		{"10", 0, 9, 0, false},
		{"-1", 0, 9, 0, false},
		{"1e1", 0, 10, 10, true},
		{"+3", 0, 9, 3, true},
		{"0x10", 0, 99, 0, false},
		{"", 0, 9, 0, false},
	} {
		if got, err := ParseInt(tc.s, tc.lo, tc.hi); got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseInt(%q, %d, %d) = %d, %v", tc.s, tc.lo, tc.hi, got, err)
		}
	}
}

// TestJoinedTableOfListsAndGrammars: a table whose values are lists and
// whole grammars reads and renders ";"-joined; Only and Shown see just
// the rendered fields, and Usage has a line per key.
func TestJoinedTableOfListsAndGrammars(t *testing.T) {
	var v struct {
		Inner target
		Ns    []int
		CCs   []string
	}
	fields := func() Fields {
		return Fields{
			Func("inner", &v.Inner, func(s string) (target, error) {
				var in target
				return in, in.fields().Parse(s)
			}, func(in target) string { return in.fields().String() }).Doc("the target's own grammar"),
			List("n", &v.Ns, "+", func(s string) (int, error) { return ParseInt(s, 0, 9) }, func(n int) string { return fmt.Sprint(n) }).When(len(v.Ns) > 0),
			List("cc", &v.CCs, "+", OneOf("reno", "tahoe"), func(s string) string { return s }).When(len(v.CCs) > 0),
		}
	}
	if err := fields().ParseSep(" inner=n=2,x=1.5 ; n=1 + 9", ";"); err != nil {
		t.Fatal(err)
	}
	const canon = "inner=n=2,x=1.5,on=0,think_ms=0,delay=0s;n=1+9"
	if got := fields().Join(";"); got != canon {
		t.Fatalf("Join = %q, want %q", got, canon)
	}
	if got := fields().Shown(); !reflect.DeepEqual(got, []string{"inner", "n"}) {
		t.Fatalf("Shown = %v", got)
	}
	if got := fields().Only("n", "cc").Join(";"); got != "n=1+9" {
		t.Fatalf("Only(n, cc) = %q", got)
	}
	if got := fields().Usage(); got != "inner=the target's own grammar\nn=\ncc=" {
		t.Fatalf("Usage = %q", got)
	}
	for text, want := range map[string]string{
		"n=1+10":        "n=1+10: not in 0..9",
		"cc=reno+vegas": "cc=reno+vegas: want one of reno, tahoe",
		"inner=n=0":     "inner=n=0: n=0: want a positive integer",
		"n=1;n=2":       "n=2: key given twice",
		"n=1,cc=reno":   "n=1,cc=reno: not an integer",
	} {
		if err := fields().ParseSep(text, ";"); err == nil || err.Error() != want {
			t.Errorf("ParseSep(%q): error %v, want %q", text, err, want)
		}
	}
}
