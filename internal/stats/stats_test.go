package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Percentile(50) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should answer zeros")
	}
	for _, x := range []float64{4, 2, 8, 6} {
		s.Add(x)
	}
	if s.N() != 4 || s.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(50); p != 50 {
		t.Fatalf("p50 = %v", p)
	}
	if p := s.Percentile(99); p != 99 {
		t.Fatalf("p99 = %v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100 = %v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
}

// TestEmptySampleGuards pins the degenerate-input contract the campaign
// harness relies on: every distribution query on an empty sample answers
// 0 rather than dividing by zero or indexing past the slice.
func TestEmptySampleGuards(t *testing.T) {
	var s Sample
	if s.N() != 0 {
		t.Fatal("empty N")
	}
	for name, got := range map[string]float64{
		"Mean":         s.Mean(),
		"StddevSample": s.StddevSample(),
		"CI95":         s.CI95(),
		"Percentile0":  s.Percentile(0),
		"Percentile50": s.Percentile(50),
		"Min":          s.Min(),
		"Max":          s.Max(),
	} {
		if got != 0 {
			t.Fatalf("empty sample %s = %v, want 0", name, got)
		}
	}
}

// TestSingleElementSampleGuards: one observation has no spread, so the
// spread statistics are 0 and every rank statistic is the observation.
func TestSingleElementSampleGuards(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.Mean() != 42 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("mean/min/max = %v/%v/%v", s.Mean(), s.Min(), s.Max())
	}
	for _, p := range []float64{0, 50, 100} {
		if s.Percentile(p) != 42 {
			t.Fatalf("p%v = %v", p, s.Percentile(p))
		}
	}
	if s.StddevSample() != 0 || s.CI95() != 0 {
		t.Fatalf("spread of single element: %v/%v", s.StddevSample(), s.CI95())
	}
}

func TestStddevSampleAndCI95(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	// Population stddev is 2; sample stddev is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if d := s.StddevSample(); math.Abs(d-want) > 1e-9 {
		t.Fatalf("sample stddev = %v, want %v", d, want)
	}
	// CI95 = t(7) * s / sqrt(8) with t(7) = 2.365.
	wantCI := 2.365 * want / math.Sqrt(8)
	if ci := s.CI95(); math.Abs(ci-wantCI) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", ci, wantCI)
	}
}

func TestTCrit95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 7: 2.365, 30: 2.042, 31: 2.021, 50: 2.000, 100: 1.980, 1000: 1.960}
	for df, want := range cases {
		if got := tCrit95(df); got != want {
			t.Fatalf("tCrit95(%d) = %v, want %v", df, got, want)
		}
	}
	if tCrit95(0) != 0 {
		t.Fatal("df=0 should answer 0")
	}
	// Monotone non-increasing in df.
	prev := tCrit95(1)
	for df := 2; df <= 200; df++ {
		cur := tCrit95(df)
		if cur > prev {
			t.Fatalf("tCrit95 not monotone at df=%d", df)
		}
		prev = cur
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(xs []float64, a, b uint8) bool {
		var s Sample
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
			}
		}
		lo, hi := float64(a%101), float64(b%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		return s.Percentile(lo) <= s.Percentile(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughput(t *testing.T) {
	// 1000 bytes in 1 second = 8000 b/s.
	if r := Throughput(1000, time.Second); r != 8000 {
		t.Fatalf("rate = %v", r)
	}
	if Throughput(1000, 0) != 0 {
		t.Fatal("zero interval should be 0")
	}
}

func TestHumanUnits(t *testing.T) {
	if HumanRate(2_500_000) != "2.50 Mb/s" {
		t.Fatalf("rate: %q", HumanRate(2_500_000))
	}
	if HumanRate(1_000_000_000) != "1.00 Gb/s" {
		t.Fatal("Gb/s")
	}
	if HumanRate(500) != "500 b/s" {
		t.Fatal("b/s")
	}
	if HumanBytes(3*1024) != "3.00 KiB" {
		t.Fatalf("bytes: %q", HumanBytes(3*1024))
	}
	if HumanBytes(10) != "10 B" {
		t.Fatal("B")
	}
}

func TestPct(t *testing.T) {
	if Pct(1, 4) != "25.0%" {
		t.Fatalf("Pct = %q", Pct(1, 4))
	}
	if Pct(1, 0) != "n/a" {
		t.Fatal("div by zero")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "22")
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	// All rows align: same prefix width for the second column.
	if strings.Index(lines[0], "value") != strings.Index(lines[2], "1") {
		t.Fatal("columns misaligned")
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness(nil); got != 1 {
		t.Errorf("zero flows: %v, want 1", got)
	}
	if got := JainFairness([]float64{42}); got != 1 {
		t.Errorf("one flow: %v, want 1", got)
	}
	if got := JainFairness([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("all-equal: %v, want 1", got)
	}
	if got := JainFairness([]float64{0, 0, 0}); got != 1 {
		t.Errorf("all-zero: %v, want 1", got)
	}
	// One flow hogging everything approaches 1/n.
	if got, want := JainFairness([]float64{100, 0, 0, 0}), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("starved: %v, want %v", got, want)
	}
	// A known mixed case: (1+2+3)^2 / (3 * 14) = 36/42.
	if got, want := JainFairness([]float64{1, 2, 3}), 36.0/42.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mixed: %v, want %v", got, want)
	}
}
