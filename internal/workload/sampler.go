// Package workload is the flow-level traffic engine: it drives the
// stack with generated sessions instead of hand-wired flows, so
// experiments can offer the load of "millions of users" (ROADMAP north
// star) from a handful of seeded parameters.
//
// The engine runs on the simulation kernel and follows the fault
// injector's discipline: every recurring closure is bound at Arm, the
// engine draws all randomness from its own rand.Rand (never the
// kernel's), and a given (Spec, seed) produces byte-identical traffic.
// Flows are real connections through the existing stack/tcp/udp/nvp
// layers — nothing is modelled, everything is transmitted.
package workload

import (
	"math"
	"math/rand"

	"darpanet/internal/sim"
)

// BoundedPareto draws heavy-tailed values in [Min, Max] — the classical
// flow-size distribution: most flows are mice, a few elephants carry
// most of the bytes. Sampling is by inverse CDF, one uniform draw per
// value, so a fixed rng stream yields a fixed sample stream.
type BoundedPareto struct {
	Alpha    float64 // tail index (> 0, != 1 for a finite analytic mean formula)
	Min, Max float64
}

// Sample draws one value from rng.
func (p BoundedPareto) Sample(rng *rand.Rand) float64 {
	if p.Min >= p.Max {
		return p.Min
	}
	u := rng.Float64()
	ratio := math.Pow(p.Min/p.Max, p.Alpha)
	return p.Min / math.Pow(1-u*(1-ratio), 1/p.Alpha)
}

// Mean returns the analytic expectation of the bounded distribution.
func (p BoundedPareto) Mean() float64 {
	if p.Min >= p.Max {
		return p.Min
	}
	a, l, h := p.Alpha, p.Min, p.Max
	if a == 1 {
		return math.Log(h/l) * l * h / (h - l)
	}
	la := math.Pow(l, a)
	m := la / (1 - math.Pow(l/h, a)) * a / (a - 1) *
		(math.Pow(l, 1-a) - math.Pow(h, 1-a))
	if math.IsInf(la, 0) {
		// l^a overflows for a steep tail (alpha=90 on 4 kB flows). The
		// same mean with l^a divided through stays in range; the form
		// above is kept where it is finite, since every recorded
		// offered-load calibration was computed with it.
		r := l / h
		m = a / (a - 1) * l * (1 - math.Pow(r, a-1)) / (1 - math.Pow(r, a))
	}
	return m
}

// Exponential draws exponentially distributed durations with the given
// mean — the inter-arrival time of a Poisson session process.
type Exponential struct {
	Mean sim.Duration
}

// Sample draws one inter-arrival duration from rng (never zero, so two
// arrivals cannot collapse onto one kernel timestamp).
func (e Exponential) Sample(rng *rand.Rand) sim.Duration {
	d := sim.Duration(rng.ExpFloat64() * float64(e.Mean))
	if d <= 0 {
		d = 1
	}
	return d
}
