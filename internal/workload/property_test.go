package workload_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"darpanet/internal/sim"
	"darpanet/internal/workload"
)

// The samplers carry the engine's statistical contract: deterministic
// per seed, and faithful to their analytic means. These are property
// tests over several seeds, with tolerances wide enough for the
// heavy-tailed case (a bounded Pareto converges slowly).

func TestBoundedParetoDeterministicPerSeed(t *testing.T) {
	p := workload.BoundedPareto{Alpha: 1.3, Min: 4_000, Max: 1_000_000}
	for _, seed := range []int64{1, 2, 3} {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if x, y := p.Sample(a), p.Sample(b); x != y {
				t.Fatalf("seed %d draw %d: %v != %v", seed, i, x, y)
			}
		}
	}
}

func TestBoundedParetoMatchesAnalyticMean(t *testing.T) {
	for _, p := range []workload.BoundedPareto{
		{Alpha: 1.3, Min: 4_000, Max: 1_000_000},
		{Alpha: 2.0, Min: 1_000, Max: 100_000},
		{Alpha: 1.0, Min: 500, Max: 50_000}, // the log-form special case
	} {
		want := p.Mean()
		for _, seed := range []int64{11, 22, 33} {
			rng := rand.New(rand.NewSource(seed))
			const n = 200_000
			sum := 0.0
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < n; i++ {
				x := p.Sample(rng)
				sum += x
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			got := sum / n
			if lo < p.Min || hi > p.Max {
				t.Errorf("%+v seed %d: samples [%v, %v] escape [%v, %v]",
					p, seed, lo, hi, p.Min, p.Max)
			}
			if rel := math.Abs(got-want) / want; rel > 0.05 {
				t.Errorf("%+v seed %d: empirical mean %.0f vs analytic %.0f (%.1f%% off)",
					p, seed, got, want, 100*rel)
			}
		}
	}
}

func TestExponentialDeterministicPerSeed(t *testing.T) {
	e := workload.Exponential{Mean: 100 * time.Millisecond}
	for _, seed := range []int64{1, 2, 3} {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if x, y := e.Sample(a), e.Sample(b); x != y {
				t.Fatalf("seed %d draw %d: %v != %v", seed, i, x, y)
			}
		}
	}
}

func TestExponentialMatchesMean(t *testing.T) {
	// Poisson arrivals are exponential inter-arrivals: the sample mean
	// must track the configured mean across seeds.
	mean := 100 * time.Millisecond
	e := workload.Exponential{Mean: mean}
	for _, seed := range []int64{11, 22, 33} {
		rng := rand.New(rand.NewSource(seed))
		const n = 100_000
		var sum sim.Duration
		for i := 0; i < n; i++ {
			d := e.Sample(rng)
			if d <= 0 {
				t.Fatalf("seed %d: non-positive inter-arrival %v", seed, d)
			}
			sum += d
		}
		got := float64(sum) / n
		if rel := math.Abs(got-float64(mean)) / float64(mean); rel > 0.02 {
			t.Errorf("seed %d: empirical mean %.2fms vs %.2fms (%.1f%% off)",
				seed, got/1e6, float64(mean)/1e6, 100*rel)
		}
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	p := workload.BoundedPareto{Alpha: 1.3, Min: 1000, Max: 1000}
	rng := rand.New(rand.NewSource(1))
	if x := p.Sample(rng); x != 1000 {
		t.Errorf("degenerate Min==Max sampled %v", x)
	}
	if m := p.Mean(); m != 1000 {
		t.Errorf("degenerate Min==Max mean %v", m)
	}
}

// FuzzWorkloadSpec: any string either fails ParseSpec or parses to a spec
// whose String parses back to the same String. String leaves on_ms and
// off_ms out of a mix that is not on/off, so the first trip may reset
// those two to their defaults; from there on the value itself is a fixed
// point.
func FuzzWorkloadSpec(f *testing.F) {
	for _, s := range []string{
		"", "naive=1,alpha=1.1,min=30000,max=2000000", "bulk=.7,inter=.1,rr=.15,voice=.05,rate=10,alpha=1.3,min=4000,max=1e6",
		"cc=tahoe,ecn=1", "onoff=1,on_ms=500,off_ms=250", "onoff=0,on_ms=5", "think_ms=-3", "rate=NaN", "bulk=1,bulk=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := workload.ParseSpec(in)
		if err != nil {
			return
		}
		back, err := workload.ParseSpec(spec.String())
		if err != nil || back.String() != spec.String() || spec.OnOff && back != spec {
			t.Fatalf("%q parses to %q, which parses to %q (err %v)", in, spec, back, err)
		}
		if again, err := workload.ParseSpec(back.String()); err != nil || again != back {
			t.Fatalf("%q: %+v is not a fixed point of Parse∘String: %+v (err %v)", in, back, again, err)
		}
	})
}
