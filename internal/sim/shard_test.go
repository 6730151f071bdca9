package sim

import (
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
	g.SetExchange(func() { barriers = append(barriers, g.Now()) })
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
