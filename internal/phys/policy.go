package phys

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"darpanet/internal/metrics"
	"darpanet/internal/spec"
)

// Gateway queue policy. The paper leaves gateway resource management as
// an open problem — the seed's answer everywhere is a deep drop-tail
// FIFO, which E13 shows is one of the two ingredients of congestion
// collapse. PolicyQdisc factors the accept/mark/drop decision out of
// the queue so the E13-T tournament can search the policy space:
// drop-tail (the extracted status quo), RED-style probabilistic early
// drop (Floyd/Jacobson 1993), and ECN marking via the two unused TOS
// bits (RFC 3168). The discipline itself stays IP-ignorant: congestion
// marking is an injected callback, exactly as PrioQdisc's classifier
// is.

// Policy kinds understood by ParsePolicySpec.
const (
	PolicyDropTail = "droptail"
	PolicyRED      = "red"
	PolicyECN      = "ecn"
)

// PolicySpec names a gateway queue policy and its RED parameters. The
// zero value means drop-tail. MinTh/MaxTh are EWMA queue depths in
// frames; MaxP is the early-drop probability at MaxTh; Wq is the EWMA
// weight. Zero parameters resolve against the queue limit at install
// time (MinTh=limit/8, MaxTh=limit/2, MaxP=0.1, Wq=0.002 — the classic
// RED defaults scaled to the queue).
type PolicySpec struct {
	Kind  string
	MinTh int
	MaxTh int
	MaxP  float64
	Wq    float64
}

// withDefaults resolves zero parameters against the queue limit.
func (s PolicySpec) withDefaults(limit int) PolicySpec {
	if s.Kind == "" {
		s.Kind = PolicyDropTail
	}
	if s.MinTh <= 0 {
		s.MinTh = limit / 8
	}
	if s.MinTh < 1 {
		s.MinTh = 1
	}
	if s.MaxTh <= 0 {
		s.MaxTh = limit / 2
	}
	if s.MaxTh <= s.MinTh {
		s.MaxTh = s.MinTh + 1
	}
	if s.MaxP <= 0 {
		s.MaxP = 0.1
	}
	if s.Wq <= 0 {
		s.Wq = 0.002
	}
	return s
}

// DropProb returns the RED drop (or mark) probability for an EWMA queue
// depth avg, with count frames accepted since the last drop/mark (the
// uniformizing correction p_a = p_b / (1 - count·p_b)). The spec must
// be resolved: call on the value withDefaults produced, or set every
// field. Exposed so the boundary tables in policy_test.go pin the
// textbook curve: 0 below MinTh, MaxP at MaxTh, 1 above.
func (s PolicySpec) DropProb(avg float64, count int) float64 {
	if avg < float64(s.MinTh) {
		return 0
	}
	if avg >= float64(s.MaxTh) {
		return 1
	}
	pb := s.MaxP * (avg - float64(s.MinTh)) / (float64(s.MaxTh) - float64(s.MinTh))
	den := 1 - float64(count)*pb
	if den <= pb { // correction exhausted: drop for sure
		return 1
	}
	return pb / den
}

// Fields is the RED parameters' key=val grammar: thresholds in frames,
// then the two (0,1] floats. Zero means "resolve at install time", so a
// parameter is rendered only when set and cannot be given as zero.
func (s *PolicySpec) Fields() spec.Fields {
	positive := func(p *int) func() bool { return func() bool { return *p > 0 } }
	unit := func(p *float64) func() bool { return func() bool { return *p > 0 && *p <= 1 } }
	return spec.Fields{
		spec.Int("min", &s.MinTh).Where("a positive integer", positive(&s.MinTh)).When(s.MinTh > 0),
		spec.Int("max", &s.MaxTh).Where("a positive integer", positive(&s.MaxTh)).When(s.MaxTh > 0),
		spec.Float("maxp", &s.MaxP).Where("a float in (0,1]", unit(&s.MaxP)).When(s.MaxP > 0),
		spec.Float("wq", &s.Wq).Where("a float in (0,1]", unit(&s.Wq)).When(s.Wq > 0),
	}
}

// ParsePolicySpec parses "kind" or "kind:k=v,k=v" with the keys of
// PolicySpec.Fields — e.g. "droptail", "red",
// "ecn:min=64,max=256,maxp=0.1,wq=0.002". Empty input means drop-tail.
func ParsePolicySpec(s string) (PolicySpec, error) {
	if s = strings.TrimSpace(s); s == "" {
		s = PolicyDropTail
	}
	kind, rest, _ := strings.Cut(s, ":")
	sp := PolicySpec{Kind: kind}
	if !slices.Contains(PolicyKinds(), kind) {
		return sp, fmt.Errorf("policy: unknown kind %q (want one of %s)", kind, strings.Join(PolicyKinds(), ", "))
	}
	if err := sp.Fields().Parse(rest); err != nil {
		return sp, fmt.Errorf("policy: %w", err)
	}
	if sp.MinTh > 0 && sp.MaxTh > 0 && sp.MaxTh <= sp.MinTh {
		return sp, fmt.Errorf("policy: max threshold %d must exceed min %d", sp.MaxTh, sp.MinTh)
	}
	return sp, nil
}

// String renders the spec in ParsePolicySpec's format, emitting only
// the parameters that were explicitly set, so Parse(s.String()) round
// trips.
func (s PolicySpec) String() string {
	kind := s.Kind
	if kind == "" {
		kind = PolicyDropTail
	}
	return strings.TrimSuffix(kind+":"+s.Fields().String(), ":")
}

// PolicyKinds lists the recognised policy kinds, sorted.
func PolicyKinds() []string {
	ks := []string{PolicyDropTail, PolicyECN, PolicyRED}
	sort.Strings(ks)
	return ks
}

// PolicyStats counts one queue's policy decisions.
type PolicyStats struct {
	Enqueues   uint64 // frames accepted
	TailDrops  uint64 // frames dropped because the queue was full
	EarlyDrops uint64 // frames dropped by RED below the limit
	Marks      uint64 // frames CE-marked instead of dropped (ecn)
	MarkFails  uint64 // mark attempts on non-ECT frames, dropped instead
}

// PolicyQdisc is a bounded FIFO whose accept decision runs a gateway
// policy over the instantaneous and EWMA queue depth. Its drop-tail kind
// is the queue every transmitter starts with: the limit is its only
// rule, it keeps no average and consumes no randomness, so installing
// it anywhere leaves existing experiments byte-identical.
type PolicyQdisc struct {
	ring
	spec  PolicySpec
	early bool    // red or ecn: the EWMA and the early decision run
	avg   float64 // EWMA queue depth, updated per arrival
	count int     // frames accepted since the last drop/mark
	rng   *rand.Rand
	mark  func(payload []byte) bool // CE-mark in place; false if not ECT
	stats PolicyStats
}

// NewPolicyQdisc builds a policy queue. rng supplies the RED coin flips
// (pass the kernel's for determinism; drop-tail never draws). mark
// CE-marks a frame payload in place, reporting false when the datagram
// is not ECN-capable (the ecn kind then falls back to dropping); nil
// disables marking, degrading ecn to red.
func NewPolicyQdisc(limit int, spec PolicySpec, rng *rand.Rand, mark func(payload []byte) bool) *PolicyQdisc {
	q := &PolicyQdisc{ring: newRing(limit), rng: rng, mark: mark}
	q.spec = spec.withDefaults(q.limit)
	q.early = q.spec.Kind != PolicyDropTail
	return q
}

// Avg returns the current EWMA queue depth (drop-tail keeps none).
func (q *PolicyQdisc) Avg() float64 { return q.avg }

// Stats returns a copy of the policy counters.
func (q *PolicyQdisc) Stats() PolicyStats { return q.stats }

func (q *PolicyQdisc) Enqueue(f queuedFrame) bool {
	if q.early {
		// EWMA over instantaneous depth at each arrival. (Classic RED also
		// decays avg across idle time; the arrival-sampled EWMA is
		// standard in simulators.)
		q.avg += q.spec.Wq * (float64(q.n) - q.avg)
	}
	if q.n >= q.limit {
		q.stats.TailDrops++
		return false
	}
	if q.early && !q.admitEarly(f) {
		return false
	}
	q.stats.Enqueues++
	return q.push(f)
}

// admitEarly is RED's decision on a frame the limit would let in: drop
// (or, for ecn, mark) with the probability the average depth calls for.
func (q *PolicyQdisc) admitEarly(f queuedFrame) bool {
	if q.avg < float64(q.spec.MinTh) {
		q.count = 0
		return true
	}
	p := q.spec.DropProb(q.avg, q.count)
	if p < 1 && (q.rng == nil || q.rng.Float64() >= p) {
		q.count++
		return true
	}
	q.count = 0
	if q.spec.Kind == PolicyECN && q.mark != nil {
		if q.mark(f.f.Payload) {
			q.stats.Marks++
			return true
		}
		q.stats.MarkFails++
	}
	q.stats.EarlyDrops++
	return false
}

func (q *PolicyQdisc) Dequeue() (queuedFrame, bool) { return q.pop() }

// RegisterMetrics binds the policy counters into reg under
// <node>/aqm/<name>. Registering several interfaces of one node is
// fine: the registry uniquifies duplicate paths deterministically.
func (q *PolicyQdisc) RegisterMetrics(reg *metrics.Registry, node string) {
	reg.Counter(node, "aqm", "enqueues", &q.stats.Enqueues)
	reg.Counter(node, "aqm", "tail_drops", &q.stats.TailDrops)
	reg.Counter(node, "aqm", "early_drops", &q.stats.EarlyDrops)
	reg.Counter(node, "aqm", "marks", &q.stats.Marks)
	reg.Counter(node, "aqm", "mark_fails", &q.stats.MarkFails)
}
