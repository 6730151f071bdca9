package phys

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// bareRing drives the ring itself through the disciplines' interface.
type bareRing struct{ ring }

func (b *bareRing) Enqueue(f queuedFrame) bool   { return b.push(f) }
func (b *bareRing) Dequeue() (queuedFrame, bool) { return b.pop() }

// queueSubject is one queue the property test holds to the slice
// reference: how to make it at a limit, how many strict-priority bands
// the reference needs (a frame's first payload byte picks the band),
// whether it may refuse a frame its limit has room for, and the rings
// underneath it, for the checks only the container can fail.
type queueSubject struct {
	name  string
	make  func(limit int) Qdisc
	bands int
	early bool
	rings func(Qdisc) []*ring
}

var queueSubjects = []queueSubject{
	{"ring", func(limit int) Qdisc { return &bareRing{newRing(limit)} }, 1, false,
		func(q Qdisc) []*ring { return []*ring{&q.(*bareRing).ring} }},
	{"droptail", func(limit int) Qdisc { return NewPolicyQdisc(limit, PolicySpec{}, nil, nil) }, 1, false,
		func(q Qdisc) []*ring { return []*ring{&q.(*PolicyQdisc).ring} }},
	{"red", func(limit int) Qdisc {
		return NewPolicyQdisc(limit, PolicySpec{Kind: PolicyRED, Wq: 0.25}, rand.New(rand.NewSource(1)), nil)
	}, 1, true,
		func(q Qdisc) []*ring { return []*ring{&q.(*PolicyQdisc).ring} }},
	{"priority", func(limit int) Qdisc {
		return NewPriority(3, limit, func(p []byte) int { return int(p[0]) })
	}, 3, false,
		func(q Qdisc) []*ring {
			bands := q.(*PrioQdisc).bands
			rs := make([]*ring, len(bands))
			for i := range bands {
				rs[i] = &bands[i]
			}
			return rs
		}},
}

// randomProgram is n operations — '+' enqueue, '-' dequeue, 'f' filter —
// in alternating phases that favour filling and then draining, so a
// queue climbs through every growth step to its limit, empties, and
// wraps around many times on the way.
func randomProgram(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fill := 0.7
		if i/300%2 == 1 {
			fill = 0.3
		}
		switch x := rng.Float64(); {
		case x < 0.01:
			b.WriteByte('f')
		case x < fill:
			b.WriteByte('+')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// TestQueuesMatchSliceReference runs each program over the bare ring and
// all three disciplines beside a slice FIFO per band. It holds: a frame
// is refused when its band is at the limit (and, for the queues with no
// early decision, only then); Dequeue returns the reference's next frame,
// highest band first and FIFO within it; Len agrees after every step;
// filter removes exactly the frames the reference removes and keeps the
// order of the rest; and underneath, a ring never holds more slots than
// its limit, grows only by doubling, and keeps no frame in a slot it has
// popped or filtered out. The first row is the bounded-FIFO case every
// queue has always had to pass; the random rows must between them wrap
// every ring and take it through every capacity up to the limit.
func TestQueuesMatchSliceReference(t *testing.T) {
	rows := []struct {
		name    string
		limit   int
		program string
		random  bool
	}{
		{"five into three, drained, then empty", 3, "+++++----", false},
		{"filter on empty and full", 4, "f++++++f--f++----", false},
		{"limit of one", 1, randomProgram(rand.New(rand.NewSource(1)), 200), true},
		{"limit below the first capacity", 5, randomProgram(rand.New(rand.NewSource(2)), 500), true},
		{"limit on a doubling", 64, randomProgram(rand.New(rand.NewSource(3)), 4000), true},
		{"limit between doublings", 100, randomProgram(rand.New(rand.NewSource(4)), 6000), true},
		{"default limit", 0, randomProgram(rand.New(rand.NewSource(5)), 3000), true},
	}
	for _, sub := range queueSubjects {
		for _, row := range rows {
			t.Run(sub.name+"/"+row.name, func(t *testing.T) {
				limit := row.limit
				if limit == 0 {
					limit = DefaultQueueLimit
				}
				q := sub.make(row.limit)
				ref := make([]sliceFIFO, sub.bands)
				for i := range ref {
					ref[i].limit = limit
				}
				rng := rand.New(rand.NewSource(int64(len(row.program))))
				caps, wrapped := map[int]bool{}, false
				for step, op := range row.program {
					switch op {
					case '+':
						band := rng.Intn(sub.bands)
						f := queuedFrame{f: Frame{Payload: []byte{byte(band), byte(step), byte(step >> 8)}}}
						full := ref[band].Len() == limit
						got := q.Enqueue(f)
						if got && full || !got && !full && !sub.early {
							t.Fatalf("step %d: Enqueue = %v with %d of %d queued", step, got, ref[band].Len(), limit)
						}
						if got {
							ref[band].Enqueue(f)
						}
					case '-':
						var want queuedFrame
						wantOK := false
						for b := sub.bands - 1; b >= 0 && !wantOK; b-- {
							want, wantOK = ref[b].Dequeue()
						}
						got, ok := q.Dequeue()
						if ok != wantOK || string(got.f.Payload) != string(want.f.Payload) {
							t.Fatalf("step %d: Dequeue = %v %v, want %v %v", step, got.f.Payload, ok, want.f.Payload, wantOK)
						}
					case 'f':
						// Drops about half, by a bit of the sequence number.
						keep := func(f queuedFrame) bool { return f.f.Payload[1]&2 == 0 }
						want := 0
						for b := range ref {
							want += ref[b].filter(keep)
						}
						if got := q.filter(keep); got != want {
							t.Fatalf("step %d: filter removed %d, want %d", step, got, want)
						}
					}
					want := 0
					for b := range ref {
						want += ref[b].Len()
					}
					if q.Len() != want {
						t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), want)
					}
					for _, r := range sub.rings(q) {
						if len(r.buf) > 0 {
							caps[len(r.buf)] = true
						}
						wrapped = wrapped || r.head+r.n > len(r.buf)
						for i := r.n; i < len(r.buf); i++ {
							if s := r.buf[r.slot(i)]; s.from != nil || s.f.Payload != nil {
								t.Fatalf("step %d: free slot %d still holds %v", step, i, s.f.Payload)
							}
						}
					}
				}
				// Every capacity seen is on the doubling ladder, and a
				// random row climbed all of it and wrapped.
				ladder := map[int]bool{}
				for c := 8; ; c *= 2 {
					ladder[min(c, limit)] = true
					if c >= limit {
						break
					}
				}
				for c := range caps {
					if !ladder[c] {
						t.Errorf("ring capacity %d is not a doubling up to the limit %d", c, limit)
					}
				}
				if row.random && !sub.early && (len(caps) != len(ladder) || !wrapped && limit > 1) {
					t.Errorf("program saw capacities %v (wrapped=%v), want all of %v and a wrap", fmt.Sprint(caps), wrapped, fmt.Sprint(ladder))
				}
			})
		}
	}
}

// BenchmarkPolicyQueueDeep is the output queue of a saturated gateway:
// 512 frames deep and held there, one dequeue and one enqueue per op.
// The red row's thresholds straddle that depth, so its enqueue runs the
// average, the probability and the coin flip, and is retried when the
// coin refuses it.
func BenchmarkPolicyQueueDeep(b *testing.B) {
	const depth = 512
	for _, spec := range []PolicySpec{
		{Kind: PolicyDropTail},
		{Kind: PolicyRED, MinTh: depth / 2, MaxTh: 2 * depth, MaxP: 0.02, Wq: 0.002},
	} {
		b.Run(spec.Kind, func(b *testing.B) {
			q := NewPolicyQdisc(depth, spec, rand.New(rand.NewSource(1)), nil)
			f := queuedFrame{f: Frame{Payload: make([]byte, 64)}}
			for q.Len() < depth {
				q.Enqueue(f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Dequeue()
				for !q.Enqueue(f) {
				}
			}
			if q.Len() != depth {
				b.Fatalf("queue at %d, want held at %d", q.Len(), depth)
			}
		})
	}
}
