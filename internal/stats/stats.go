// Package stats provides the small measurement toolkit the experiment
// harness uses: sample collections with percentiles, rate meters, and
// formatting helpers for the report tables.
package stats

import (
	"fmt"
	"math"
	"sort"

	"darpanet/internal/sim"
)

// Sample accumulates float64 observations and answers distribution
// queries. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StddevSample returns the Bessel-corrected (n-1) standard deviation,
// the estimator confidence intervals want (0 for fewer than two
// observations).
func (s *Sample) StddevSample() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		sum += (x - m) * (x - m)
	}
	return math.Sqrt(sum / float64(n-1))
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean, using the Student t critical value for n-1 degrees of freedom:
// the true mean lies in Mean() ± CI95() with 95% confidence under the
// usual normality assumption. Zero for fewer than two observations.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCrit95(n-1) * s.StddevSample() / math.Sqrt(float64(n))
}

// tCrit95 is the two-sided 95% Student t critical value for df degrees
// of freedom (exact to three decimals through df=30, then the standard
// table breakpoints, converging on the normal 1.960).
func tCrit95(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df < 1:
		return 0
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}

func (s *Sample) sortIfNeeded() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p'th percentile (p in [0,100]) by
// nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortIfNeeded()
	rank := int(math.Ceil(p/100*float64(len(s.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.xs) {
		rank = len(s.xs) - 1
	}
	return s.xs[rank]
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortIfNeeded()
	return s.xs[0]
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortIfNeeded()
	return s.xs[len(s.xs)-1]
}

// JainFairness returns Jain's fairness index (Σx)²/(n·Σx²) over the
// per-flow allocations xs: 1.0 when every flow gets an equal share,
// approaching 1/n when one flow starves the rest. Degenerate inputs
// answer the question they pose — no flows is vacuously fair (1), as is
// one flow, or an allocation of all zeros.
func JainFairness(xs []float64) float64 {
	if len(xs) <= 1 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Throughput expresses bytes over a simulated interval as bits/second.
func Throughput(bytes uint64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / (float64(d) / 1e9)
}

// HumanRate renders a bits/second figure with engineering units.
func HumanRate(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gb/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mb/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2f kb/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0f b/s", bps)
	}
}

// HumanBytes renders a byte count with engineering units.
func HumanBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Pct renders a ratio as a percentage.
func Pct(num, den uint64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// Table renders rows of columns with aligned widths, for the experiment
// reports.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		out := ""
		for i, c := range cells {
			if i > 0 {
				out += "  "
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			out += c
			for j := 0; j < pad; j++ {
				out += " "
			}
		}
		return out + "\n"
	}
	out := line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	out += line(sep)
	for _, row := range t.Rows {
		out += line(row)
	}
	return out
}
