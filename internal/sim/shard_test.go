package sim

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

// shardEvent is one recorded event of a shardTrace kernel.
type shardEvent struct {
	at    Time
	shard int
	txt   string
}

// shardTrace runs two kernels exchanging messages through a lookahead
// barrier and records every event. Cross-kernel sends are buffered in
// outboxes and imported at the barrier with a fixed one-lookahead
// latency, mirroring how boundary links work.
//
// Each kernel records into its own trace: within an epoch the two run on
// different goroutines, and the order their events interleave in
// wall-clock time is exactly what the design does not promise (one
// shared slice would also be a data race). What is promised is each
// kernel's own event sequence, returned as perKernel[shard], and hence
// the (time, shard)-merged view.
func shardTrace(t *testing.T, workers int) (perKernel [2][]shardEvent, merged []shardEvent) {
	t.Helper()
	const look = Duration(2 * time.Millisecond)
	ka, kb := NewKernel(1), NewKernel(2)
	g := NewShardGroup([]*Kernel{ka, kb}, look, workers)
	type msg struct {
		at  Time
		txt string
	}
	var outA, outB []msg // messages to b, to a

	record := func(shard int, k *Kernel, txt string) {
		perKernel[shard] = append(perKernel[shard], shardEvent{k.Now(), shard, txt})
	}
	// Each kernel ping-pongs: on receipt, reply after a local delay.
	var onA, onB func(txt string)
	onA = func(txt string) {
		record(0, ka, txt)
		ka.After(Duration(300*time.Microsecond), func() {
			outA = append(outA, msg{ka.Now().Add(look), txt + ">"})
		})
	}
	onB = func(txt string) {
		record(1, kb, txt)
		kb.After(Duration(500*time.Microsecond), func() {
			outB = append(outB, msg{kb.Now().Add(look), "<" + txt})
		})
	}
	g.SetExchange(func() {
		for _, m := range outA {
			m := m
			kb.At(m.at, func() { onB(m.txt) })
		}
		outA = outA[:0]
		for _, m := range outB {
			m := m
			ka.At(m.at, func() { onA(m.txt) })
		}
		outB = outB[:0]
	})
	ka.After(Duration(100*time.Microsecond), func() { onA("x") })
	kb.After(Duration(250*time.Microsecond), func() { onB("y") })
	end := g.RunFor(Duration(40 * time.Millisecond))
	if end != Time(40*time.Millisecond) {
		t.Fatalf("RunFor ended at %d", end)
	}
	if ka.Now() != end || kb.Now() != end {
		t.Fatalf("kernels did not reach the deadline: a=%d b=%d", ka.Now(), kb.Now())
	}
	merged = append(append(merged, perKernel[0]...), perKernel[1]...)
	// Stable, so events of one shard at one instant keep their order.
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].at != merged[j].at {
			return merged[i].at < merged[j].at
		}
		return merged[i].shard < merged[j].shard
	})
	if len(merged) < 10 {
		t.Fatalf("expected a sustained ping-pong, got %d events: %v", len(merged), merged)
	}
	return perKernel, merged
}

// TestShardGroupDeterministicAcrossWorkers pins the tentpole invariant:
// each kernel's exact event trace — and so the (time, shard)-merged
// trace of the group — is identical no matter how many workers execute
// the epoch.
func TestShardGroupDeterministicAcrossWorkers(t *testing.T) {
	want, wantMerged := shardTrace(t, 1)
	for _, workers := range []int{2, 3, 8} {
		got, gotMerged := shardTrace(t, workers)
		for shard := range want {
			if !reflect.DeepEqual(got[shard], want[shard]) {
				t.Fatalf("workers=%d shard %d trace diverged:\n got %v\nwant %v", workers, shard, got[shard], want[shard])
			}
		}
		if !reflect.DeepEqual(gotMerged, wantMerged) {
			t.Fatalf("workers=%d merged trace diverged:\n got %v\nwant %v", workers, gotMerged, wantMerged)
		}
	}
}

// TestShardGroupEpochBoundaries verifies events land in the epoch their
// timestamps dictate and that the exchange runs once per epoch.
func TestShardGroupEpochBoundaries(t *testing.T) {
	k := NewKernel(7)
	g := NewShardGroup([]*Kernel{k}, time.Millisecond, 1)
	var barriers []Time
	g.SetExchange(func() { barriers = append(barriers, g.now) })
	var fired []Time
	for _, at := range []Time{0, Time(time.Millisecond), Time(2500 * time.Microsecond)} {
		at := at
		k.At(at, func() { fired = append(fired, k.Now()) })
	}
	g.RunFor(Duration(3 * time.Millisecond))
	wantBarriers := []Time{Time(time.Millisecond), Time(2 * time.Millisecond), Time(3 * time.Millisecond)}
	if !reflect.DeepEqual(barriers, wantBarriers) {
		t.Fatalf("barriers %v, want %v", barriers, wantBarriers)
	}
	wantFired := []Time{0, Time(time.Millisecond), Time(2500 * time.Microsecond)}
	if !reflect.DeepEqual(fired, wantFired) {
		t.Fatalf("fired %v, want %v", fired, wantFired)
	}
}

// observed is one entry of observerTrace's log.
type observed struct {
	at   Time
	what string
}

// observerTrace runs n kernels, each ticking every 300µs, in a group of
// the given lookahead for 8ms, with observers due off the lookahead
// grid: "a" then "b" at 2.5ms, and "every" from 0.7ms re-registering
// itself 1.3ms on until 6ms has passed. Kernel 0 also has an event at
// 2.5ms queued before the observers were registered and one queued
// after. It returns the observers' and kernel 0's 2.5ms events in the
// order they ran, every kernel's ticks, and the instants the exchange
// ran at.
func observerTrace(t *testing.T, n int, look Duration, workers int) (log []observed, ticks [][]Time, barriers []Time) {
	t.Helper()
	kernels := make([]*Kernel, n)
	ticks = make([][]Time, n)
	for i := range kernels {
		k := NewKernel(int64(i))
		kernels[i] = k
		var tick func()
		tick = func() {
			ticks[i] = append(ticks[i], k.Now())
			k.After(300*time.Microsecond, tick)
		}
		k.After(300*time.Microsecond, tick)
	}
	g := NewShardGroup(kernels, look, workers)
	g.SetExchange(func() { barriers = append(barriers, g.now) })
	observe := func(what string) {
		for i, k := range kernels {
			if k.Now() != g.now {
				t.Errorf("%s at %d: kernel %d is at %d", what, g.now, i, k.Now())
			}
		}
		log = append(log, observed{g.now, what})
	}

	k0, at := kernels[0], Time(2500*time.Microsecond)
	k0.At(at, func() { log = append(log, observed{k0.Now(), "kernel 0, queued before"}) })
	g.At(at, func() { observe("a") })
	g.At(at, func() { observe("b") })
	var every func()
	every = func() {
		observe("every")
		if g.now < Time(6*time.Millisecond) {
			g.At(g.now.Add(1300*time.Microsecond), every)
		}
	}
	g.At(Time(700*time.Microsecond), every)
	k0.At(at, func() { log = append(log, observed{k0.Now(), "kernel 0, queued after"}) })

	if end := g.RunFor(8 * time.Millisecond); end != Time(8*time.Millisecond) {
		t.Fatalf("RunFor ended at %d", end)
	}
	return log, ticks, barriers
}

// TestShardGroupObservers: an observer due off the lookahead grid runs
// at exactly its instant, with every kernel stopped there — on a 1-kernel
// group with no lookahead bound and on a 3-kernel group — after the
// kernel events queued before it and before those queued after; same-
// instant observers run in registration order; an observer re-registers
// itself; the exchange still runs on the lookahead grid alone; and the
// whole trace is the same at 1, 2 and 4 workers.
func TestShardGroupObservers(t *testing.T) {
	us := func(n int64) Time { return Time(n * int64(time.Microsecond)) }
	wantLog := []observed{
		{us(700), "every"}, {us(2000), "every"},
		{us(2500), "kernel 0, queued before"}, {us(2500), "a"}, {us(2500), "b"}, {us(2500), "kernel 0, queued after"},
		{us(3300), "every"}, {us(4600), "every"}, {us(5900), "every"}, {us(7200), "every"},
	}
	var wantTicks []Time
	for at := us(300); at <= us(8000); at += us(300) {
		wantTicks = append(wantTicks, at)
	}
	for _, tc := range []struct {
		kernels      int
		look         Duration
		wantBarriers []Time
	}{
		{1, math.MaxInt64, []Time{us(8000)}},
		{3, time.Millisecond, []Time{us(1000), us(2000), us(3000), us(4000), us(5000), us(6000), us(7000), us(8000)}},
	} {
		for _, workers := range []int{1, 2, 4} {
			log, ticks, barriers := observerTrace(t, tc.kernels, tc.look, workers)
			if !reflect.DeepEqual(log, wantLog) {
				t.Errorf("%d kernels, %d workers: ran\n\t%v\nwant\n\t%v", tc.kernels, workers, log, wantLog)
			}
			for i, got := range ticks {
				if !reflect.DeepEqual(got, wantTicks) {
					t.Errorf("%d kernels, %d workers: kernel %d ticked at %v, want every 300µs", tc.kernels, workers, i, got)
				}
			}
			if !reflect.DeepEqual(barriers, tc.wantBarriers) {
				t.Errorf("%d kernels, %d workers: exchanged at %v, want %v", tc.kernels, workers, barriers, tc.wantBarriers)
			}
		}
	}
}

// TestShardGroupValidation covers constructor guards.
func TestShardGroupValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no kernels", func() { NewShardGroup(nil, time.Millisecond, 1) })
	mustPanic("zero lookahead", func() { NewShardGroup([]*Kernel{NewKernel(1)}, 0, 1) })
	mustPanic("skewed clocks", func() {
		a, b := NewKernel(1), NewKernel(2)
		a.RunUntil(Time(time.Millisecond))
		NewShardGroup([]*Kernel{a, b}, time.Millisecond, 1)
	})
	g := NewShardGroup([]*Kernel{NewKernel(1)}, time.Millisecond, 99)
	if g.workers != 1 {
		t.Fatalf("workers not clamped: %d", g.workers)
	}
}

// TestShardGroupEpochAllocs checks runEpoch's promises about the heap:
// with one worker the epoch loop stays on the calling goroutine and
// allocates nothing, and a multi-worker epoch allocates only for the
// goroutines it spawns, nothing per kernel.
func TestShardGroupEpochAllocs(t *testing.T) {
	const look = Duration(time.Millisecond)
	epochs := func(workers int) float64 {
		kernels := make([]*Kernel, 8)
		for i := range kernels {
			kernels[i] = NewKernel(int64(i))
		}
		g := NewShardGroup(kernels, look, workers)
		g.RunFor(look) // first epoch: any lazy set-up
		return testing.AllocsPerRun(100, func() { g.RunFor(look) })
	}
	if allocs := epochs(1); allocs != 0 {
		t.Fatalf("one-worker epoch: %.1f allocs, want 0", allocs)
	}
	// Per multi-worker epoch: the WaitGroup, the atomic counter the
	// workers share and one closure per worker — nothing per kernel.
	for _, workers := range []int{2, 4} {
		if allocs := epochs(workers); allocs > float64(2+workers) {
			t.Fatalf("%d-worker epoch: %.1f allocs, want at most %d", workers, allocs, 2+workers)
		}
	}
}
