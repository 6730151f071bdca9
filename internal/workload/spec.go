package workload

import (
	"fmt"
	"time"

	"darpanet/internal/sim"
	"darpanet/internal/spec"
	"darpanet/internal/tcp"
)

// Spec parameterizes a traffic mix. Profile weights are relative (they
// need not sum to 1); a weight of zero disables that profile. Start
// from DefaultSpec or ParseSpec — the zero value offers no load.
type Spec struct {
	// Bulk, Interactive, RR and Voice weight the application profiles:
	// bulk TCP transfer of a Pareto-sampled size, telnet-like keystroke
	// echo over TCP, UDP request/response, and NVP constant-rate voice.
	Bulk, Interactive, RR, Voice float64

	// Rate is the aggregate session arrival rate in flows per second.
	// Arrivals are Poisson; with OnOff they are modulated by an
	// exponential on/off process (arrivals only during on-periods).
	Rate  float64
	OnOff bool
	// OnMean and OffMean are the mean on/off period lengths.
	OnMean, OffMean sim.Duration

	// Alpha, MinBytes and MaxBytes shape the bounded-Pareto bulk flow
	// size distribution.
	Alpha    float64
	MinBytes int
	MaxBytes int

	// Think is the interactive profile's keystroke interval.
	Think sim.Duration

	// VJ selects the TCP congestion era: true runs the Van Jacobson
	// machinery (post-1988), false the window-blasting pre-collapse TCP
	// ("How We Ruined The Internet") — no congestion window, go-back-N
	// recovery.
	VJ bool
	// NaiveRTO additionally fixes the retransmission timer at 1s with
	// no exponential backoff — the fully naive host of experiment E6.
	NaiveRTO bool

	// CC names the congestion response directly ("naive", "tahoe",
	// "reno"): finer-grained than the VJ era switch, which it overrides.
	// Empty defers to VJ (true→reno, false→naive). The pre-VJ host
	// knobs (go-back-N recovery) still follow VJ.
	CC string
	// ECN makes the hosts offer RFC 3168 marking on every TCP
	// connection — meaningful when the gateways run an ecn queue policy
	// and the response is reno.
	ECN bool
}

// DefaultSpec is a bulk-dominated mix in pre-VJ mode: the workload the
// congestion-collapse experiment (E13) offers.
func DefaultSpec() Spec {
	return Spec{
		Bulk: 0.70, Interactive: 0.10, RR: 0.15, Voice: 0.05,
		Rate:  10,
		Alpha: 1.3, MinBytes: 4_000, MaxBytes: 1_000_000,
		OnMean: 4 * time.Second, OffMean: 2 * time.Second,
		Think: 250 * time.Millisecond,
	}
}

// MeanFlowBytes returns the analytic mean size of a bulk flow — the
// quantity offered-load arithmetic (Rate · MeanFlowBytes · 8) uses.
func (s Spec) MeanFlowBytes() float64 {
	return BoundedPareto{Alpha: s.Alpha, Min: float64(s.MinBytes), Max: float64(s.MaxBytes)}.Mean()
}

// OfferedBps returns the analytic offered load in bits per second:
// arrival rate times mean bulk flow size (on/off modulation scales it
// by the duty cycle).
func (s Spec) OfferedBps() float64 {
	load := s.Rate * s.MeanFlowBytes() * 8
	if s.OnOff && s.OnMean+s.OffMean > 0 {
		load *= float64(s.OnMean) / float64(s.OnMean+s.OffMean)
	}
	return load
}

// WithRate returns the spec with the arrival rate replaced — how a load
// sweep reshapes one mix across its offered-load axis.
func (s Spec) WithRate(rate float64) Spec {
	s.Rate = rate
	return s
}

// Fields is the spec's key=val grammar, in rendering order: profile
// weights, arrival rate (flows/s), the bulk size distribution, then the
// host knobs. The keys whose zero value says nothing are rendered only
// when set, on_ms and off_ms only for an on/off mix.
func (s *Spec) Fields() spec.Fields {
	return spec.Fields{
		spec.Float("bulk", &s.Bulk),
		spec.Float("inter", &s.Interactive),
		spec.Float("rr", &s.RR),
		spec.Float("voice", &s.Voice),
		spec.Float("rate", &s.Rate),
		spec.Float("alpha", &s.Alpha),
		spec.Int("min", &s.MinBytes),
		spec.Int("max", &s.MaxBytes),
		spec.Millis("think_ms", &s.Think).Where("a think time of 0 ms or more", func() bool { return s.Think >= 0 }),
		spec.Bool("vj", &s.VJ),
		spec.Bool("naive", &s.NaiveRTO),
		spec.Bool("onoff", &s.OnOff),
		spec.Name("cc", &s.CC, tcp.CCNames()).When(s.CC != ""),
		spec.Bool("ecn", &s.ECN).When(s.ECN),
		spec.Millis("on_ms", &s.OnMean).When(s.OnOff),
		spec.Millis("off_ms", &s.OffMean).When(s.OnOff),
	}
}

// String renders the spec in the form ParseSpec accepts.
func (s Spec) String() string { return s.Fields().String() }

// ParseSpec parses "key=val,key=val,…" with the keys of Spec.Fields
// into a Spec, starting from DefaultSpec.
func ParseSpec(text string) (Spec, error) {
	s := DefaultSpec()
	if err := s.Fields().Parse(text); err != nil {
		return Spec{}, fmt.Errorf("workload: %w", err)
	}
	return s, s.validate()
}

func (s Spec) validate() error {
	if s.Bulk < 0 || s.Interactive < 0 || s.RR < 0 || s.Voice < 0 {
		return fmt.Errorf("workload: negative profile weight")
	}
	if s.Bulk+s.Interactive+s.RR+s.Voice <= 0 {
		return fmt.Errorf("workload: all profile weights are zero")
	}
	if s.Rate <= 0 {
		return fmt.Errorf("workload: rate must be positive")
	}
	if s.Alpha <= 0 {
		return fmt.Errorf("workload: alpha must be positive")
	}
	if s.MinBytes <= 0 || s.MaxBytes < s.MinBytes {
		return fmt.Errorf("workload: need 0 < min <= max flow size")
	}
	if s.OnOff && (s.OnMean <= 0 || s.OffMean <= 0) {
		return fmt.Errorf("workload: onoff needs positive on_ms and off_ms")
	}
	return nil
}
