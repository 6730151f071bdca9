package phys

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestDropProbBoundaries pins the textbook RED curve at its seams: zero
// below the min threshold, certainty at and above the max, linear ramp
// scaled by MaxP between, and the count correction that uniformizes
// inter-drop gaps.
func TestDropProbBoundaries(t *testing.T) {
	spec := PolicySpec{Kind: PolicyRED, MinTh: 5, MaxTh: 15, MaxP: 0.1, Wq: 0.002}
	tests := []struct {
		name  string
		avg   float64
		count int
		want  float64
	}{
		{"empty queue", 0, 0, 0},
		{"just below min", 4.999, 0, 0},
		{"at min", 5, 0, 0}, // ramp starts at zero
		{"midpoint", 10, 0, 0.05},
		{"just below max", 14.999, 0, 0.1 * 9.999 / 10},
		{"at max", 15, 0, 1},
		{"far above max", 100, 0, 1},
		{"count correction grows p", 10, 10, 0.05 / (1 - 10*0.05)},
		{"count correction near exhaustion", 10, 18, 0.5},
		{"count correction exhausted", 10, 19, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := spec.DropProb(tt.avg, tt.count)
			if math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("DropProb(%v, %d) = %v, want %v", tt.avg, tt.count, got, tt.want)
			}
		})
	}
}

// TestDropProbMonotone checks the ramp never decreases in avg or count —
// the property the early-drop loop relies on.
func TestDropProbMonotone(t *testing.T) {
	spec := PolicySpec{Kind: PolicyRED, MinTh: 4, MaxTh: 32, MaxP: 0.2, Wq: 0.002}
	prev := -1.0
	for avg := 0.0; avg <= 40; avg += 0.25 {
		p := spec.DropProb(avg, 0)
		if p < prev {
			t.Fatalf("DropProb not monotone in avg: p(%v)=%v < %v", avg, p, prev)
		}
		prev = p
	}
	prev = -1.0
	for count := 0; count < 30; count++ {
		p := spec.DropProb(10, count)
		if p < prev {
			t.Fatalf("DropProb not monotone in count: p(count=%d)=%v < %v", count, p, prev)
		}
		prev = p
	}
}

// TestPolicySpecDefaults checks the zero spec resolves to the classic
// RED parameters scaled to the queue, with degenerate limits clamped so
// MinTh ≥ 1 and MaxTh > MinTh always hold.
func TestPolicySpecDefaults(t *testing.T) {
	tests := []struct {
		limit        string
		in           PolicySpec
		lim          int
		kind         string
		minTh, maxTh int
		maxP, wq     float64
	}{
		{"512 default", PolicySpec{}, 512, PolicyDropTail, 64, 256, 0.1, 0.002},
		{"red 512", PolicySpec{Kind: PolicyRED}, 512, PolicyRED, 64, 256, 0.1, 0.002},
		{"tiny limit clamps", PolicySpec{Kind: PolicyRED}, 2, PolicyRED, 1, 2, 0.1, 0.002},
		{"explicit kept", PolicySpec{Kind: PolicyECN, MinTh: 10, MaxTh: 20, MaxP: 0.5, Wq: 0.01}, 512, PolicyECN, 10, 20, 0.5, 0.01},
	}
	for _, tt := range tests {
		t.Run(tt.limit, func(t *testing.T) {
			got := tt.in.withDefaults(tt.lim)
			if got.Kind != tt.kind || got.MinTh != tt.minTh || got.MaxTh != tt.maxTh ||
				got.MaxP != tt.maxP || got.Wq != tt.wq {
				t.Fatalf("withDefaults(%d) = %+v", tt.lim, got)
			}
			if got.MaxTh <= got.MinTh || got.MinTh < 1 {
				t.Fatalf("degenerate thresholds: %+v", got)
			}
		})
	}
}

// TestParsePolicySpecRoundTrip checks Parse(s.String()) is the identity
// on every accepted form, and that malformed specs are rejected.
func TestParsePolicySpecRoundTrip(t *testing.T) {
	good := []string{
		"",
		"droptail",
		"red",
		"ecn",
		"red:min=10,max=20",
		"ecn:min=64,max=256,maxp=0.1,wq=0.002",
		"red:maxp=0.25",
	}
	for _, s := range good {
		spec, err := ParsePolicySpec(s)
		if err != nil {
			t.Fatalf("ParsePolicySpec(%q): %v", s, err)
		}
		back, err := ParsePolicySpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", spec.String(), s, err)
		}
		if back != spec {
			t.Fatalf("round trip %q: %+v != %+v", s, back, spec)
		}
	}
	bad := []string{
		"fifo",
		"red:min=0",
		"red:min=-3",
		"red:maxp=2",
		"red:wq=0",
		"red:min=20,max=10",
		"red:min=20,max=20",
		"red:bogus=1",
		"red:min",
	}
	for _, s := range bad {
		if _, err := ParsePolicySpec(s); err == nil {
			t.Fatalf("ParsePolicySpec(%q): want error", s)
		}
	}
}

// sliceFIFO is the reference the queues are held to: the bounded
// drop-tail FIFO written the obvious way, on a slice.
type sliceFIFO struct {
	frames []queuedFrame
	limit  int
}

func (q *sliceFIFO) Enqueue(f queuedFrame) bool {
	if len(q.frames) >= q.limit {
		return false
	}
	q.frames = append(q.frames, f)
	return true
}

func (q *sliceFIFO) Dequeue() (queuedFrame, bool) {
	if len(q.frames) == 0 {
		return queuedFrame{}, false
	}
	f := q.frames[0]
	q.frames = q.frames[1:]
	return f, true
}

func (q *sliceFIFO) Len() int { return len(q.frames) }

func (q *sliceFIFO) filter(keep func(queuedFrame) bool) int {
	before := len(q.frames)
	q.frames = slices.DeleteFunc(q.frames, func(f queuedFrame) bool { return !keep(f) })
	return before - len(q.frames)
}

// TestPolicyDropTailMatchesFIFO drives an identical enqueue/dequeue
// trace through the reference FIFO and the drop-tail policy queue. The
// decisions must match frame for frame, with no randomness drawn and no
// mark attempted — that equivalence is what lets every transmitter start
// on PolicyQdisc without perturbing recorded experiments.
func TestPolicyDropTailMatchesFIFO(t *testing.T) {
	fifo := &sliceFIFO{limit: 4}
	// nil rng and a panicking marker: drop-tail must touch neither.
	pol := NewPolicyQdisc(4, PolicySpec{Kind: PolicyDropTail}, nil,
		func([]byte) bool { panic("drop-tail must not mark") })
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			f := queuedFrame{f: Frame{Payload: []byte{byte(round), byte(i)}}}
			a, b := fifo.Enqueue(f), pol.Enqueue(f)
			if a != b {
				t.Fatalf("round %d frame %d: fifo=%v policy=%v", round, i, a, b)
			}
		}
		for fifo.Len() > 0 {
			fa, _ := fifo.Dequeue()
			fb, ok := pol.Dequeue()
			if !ok || string(fa.f.Payload) != string(fb.f.Payload) {
				t.Fatalf("round %d: dequeue diverged", round)
			}
		}
		if pol.Len() != 0 {
			t.Fatalf("round %d: policy queue not drained", round)
		}
	}
	st := pol.Stats()
	if st.Enqueues != 12 || st.TailDrops != 6 || st.EarlyDrops != 0 || st.Marks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestREDEarlyDrop pins the deterministic corner of the early-drop path:
// with Wq=1 the EWMA tracks the instantaneous depth exactly, and with
// the average at MaxTh the drop is certain — no coin flip, so a nil rng
// suffices and the trace is exact.
func TestREDEarlyDrop(t *testing.T) {
	q := NewPolicyQdisc(10, PolicySpec{Kind: PolicyRED, MinTh: 1, MaxTh: 2, MaxP: 1, Wq: 1}, nil, nil)
	accept := func(want bool) {
		t.Helper()
		if got := q.Enqueue(queuedFrame{f: Frame{Payload: []byte{0}}}); got != want {
			t.Fatalf("enqueue = %v, want %v (avg %v, len %d)", got, want, q.Avg(), q.Len())
		}
	}
	accept(true)  // qlen 0 → avg 0 < MinTh
	accept(true)  // qlen 1 → avg 1, ramp starts at 0 → p=0
	accept(false) // qlen 2 → avg 2 = MaxTh → p=1, early drop
	st := q.Stats()
	if st.Enqueues != 2 || st.EarlyDrops != 1 || st.TailDrops != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if q.Avg() != 2 {
		t.Fatalf("avg = %v, want 2", q.Avg())
	}
}

// TestEWMAWeight checks the average moves by exactly Wq of the gap on
// each arrival — the smoothing that makes RED respond to sustained
// queues, not bursts.
func TestEWMAWeight(t *testing.T) {
	q := NewPolicyQdisc(100, PolicySpec{Kind: PolicyRED, MinTh: 50, MaxTh: 90, MaxP: 0.1, Wq: 0.5}, nil, nil)
	want := 0.0
	for i := 0; i < 8; i++ {
		qlen := float64(q.Len())
		want += 0.5 * (qlen - want)
		q.Enqueue(queuedFrame{f: Frame{Payload: []byte{0}}})
		if math.Abs(q.Avg()-want) > 1e-12 {
			t.Fatalf("arrival %d: avg = %v, want %v", i, q.Avg(), want)
		}
	}
	// A burst well below MinTh never trips the early path.
	if st := q.Stats(); st.EarlyDrops != 0 || st.Enqueues != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestECNMarkAndFallback checks the ecn kind marks ECN-capable frames in
// place of dropping (the frame stays queued) and falls back to an early
// drop when the transport never declared capability.
func TestECNMarkAndFallback(t *testing.T) {
	var marked [][]byte
	mark := func(p []byte) bool {
		if p[0] == 1 {
			marked = append(marked, p)
			return true
		}
		return false
	}
	q := NewPolicyQdisc(10, PolicySpec{Kind: PolicyECN, MinTh: 1, MaxTh: 2, MaxP: 1, Wq: 1}, nil, mark)
	ect := queuedFrame{f: Frame{Payload: []byte{1}}}
	notECT := queuedFrame{f: Frame{Payload: []byte{0}}}

	if !q.Enqueue(ect) || !q.Enqueue(ect) {
		t.Fatal("queue-building enqueues refused")
	}
	// avg now 2 = MaxTh: certain decision. ECT frame → marked and kept.
	if !q.Enqueue(ect) {
		t.Fatal("markable frame was dropped, want marked and enqueued")
	}
	if len(marked) != 1 || q.Len() != 3 {
		t.Fatalf("marks = %d, len = %d", len(marked), q.Len())
	}
	// Non-ECT frame at the same depth → the only signal left is a drop.
	if q.Enqueue(notECT) {
		t.Fatal("non-ECT frame enqueued, want fallback drop")
	}
	st := q.Stats()
	if st.Marks != 1 || st.MarkFails != 1 || st.EarlyDrops != 1 || st.Enqueues != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestECNNilMarkDegradesToRED: without a marker the ecn kind cannot
// signal, so it must drop exactly as red does.
func TestECNNilMarkDegradesToRED(t *testing.T) {
	q := NewPolicyQdisc(10, PolicySpec{Kind: PolicyECN, MinTh: 1, MaxTh: 2, MaxP: 1, Wq: 1}, nil, nil)
	q.Enqueue(queuedFrame{f: Frame{Payload: []byte{1}}})
	q.Enqueue(queuedFrame{f: Frame{Payload: []byte{1}}})
	if q.Enqueue(queuedFrame{f: Frame{Payload: []byte{1}}}) {
		t.Fatal("want early drop with nil marker")
	}
	if st := q.Stats(); st.EarlyDrops != 1 || st.Marks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPolicyKindsMatchParser keeps the advertised kind list and the
// parser in sync.
func TestPolicyKindsMatchParser(t *testing.T) {
	for _, k := range PolicyKinds() {
		if _, err := ParsePolicySpec(k); err != nil {
			t.Fatalf("advertised kind %q rejected: %v", k, err)
		}
	}
	if got := fmt.Sprint(PolicyKinds()); got != "[droptail ecn red]" {
		t.Fatalf("PolicyKinds() = %v", got)
	}
}

// FuzzPolicySpec: any string either fails ParsePolicySpec or parses to a
// spec that String renders back to exactly itself — zero means "not
// given" for every parameter, so nothing is hidden that a value holds.
func FuzzPolicySpec(f *testing.F) {
	for _, s := range []string{"", "droptail", "red:min=10,max=20", "ecn:min=64,max=256,maxp=0.1,wq=0.002", "red:maxp=NaN", "red:min=1,min=2", "red: wq=1e-3 "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParsePolicySpec(in)
		if err != nil {
			return
		}
		back, err := ParsePolicySpec(spec.String())
		if err != nil || back != spec || back.String() != spec.String() {
			t.Fatalf("%q parses to %q (%+v), which parses to %q (%+v, err %v)", in, spec, spec, back, back, err)
		}
	})
}
