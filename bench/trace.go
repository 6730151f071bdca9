package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Start and End are nanoseconds since the tracer was
// created; Parent is the id of the span that was open when this one
// began (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil or switched-off
// tracer records nothing: begin returns a shared no-op, so the untraced
// pass pays one branch per span site.
type tracer struct {
	on       bool
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span ids
}

func newTracer(workload string, on bool) *tracer {
	return &tracer{on: on, workload: workload, t0: time.Now()}
}

func noop() {}

// meter is what a workload gets: the tracer for its spans, and timed to
// mark the window wall_s measures. In the traced pass the runner hooks
// the window's edges to start and stop the CPU profile and read the
// allocator's counters, so they cover the window and nothing else.
type meter struct {
	*tracer
	onStart, onStop func()
}

// timed runs fn as (part of) the iteration's timed window and returns
// its host duration. The hooks run outside the clock.
func (m *meter) timed(fn func()) time.Duration {
	if m.onStart != nil {
		m.onStart()
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if m.onStop != nil {
		m.onStop()
	}
	return d
}

// begin opens a span under the innermost open one and returns the
// function that closes it. Spans must close in LIFO order.
func (t *tracer) begin(name string) (end func()) {
	if t == nil || !t.on {
		return noop
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id-1].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's duration minus the part its direct
// children cover, keyed by span id. Children of one parent never
// overlap here (the tracer is single-goroutine and LIFO), so the
// subtraction is exact and the self times of a tree sum to its root's
// duration.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
