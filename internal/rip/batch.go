package rip

import (
	"darpanet/internal/sim"
)

// Batched periodic updates.
//
// With hundreds of gateways (internal/topo generates internets of 200+),
// per-router periodic timers put one heap entry per router in the event
// queue and re-heapify on every fire — a constant background storm that
// dominates kernel time at scale. In batched mode all routers sharing an
// update interval ride one kernel timer: the shared ticker fires once
// per interval and walks its members in registration order (node
// insertion order via core.EnableRIP — deterministic), so the event
// queue holds a single periodic entry no matter how many routers run.
//
// The trade is jitter: batched routers update in the same kernel tick
// instead of desynchronized phases. Media still serialize transmissions,
// and at the scales batching is for, the synchronized burst is exactly
// the load the scale experiment (E12) wants to measure.

// tickersKey keys the per-kernel batch-scheduler registry
// (sim.Kernel.Value), one ticker per distinct update interval.
type tickersKey struct{}

type tickers struct {
	byInterval map[sim.Duration]*ticker
}

// ticker drives the batched periodic cycle for all routers on one kernel
// sharing one update interval.
type ticker struct {
	k        *sim.Kernel
	owner    *tickers
	interval sim.Duration
	routers  []*Router
	fn       func() // prebound fire, reused every interval
}

// tickerFor returns (creating on first use) the kernel's shared ticker
// for the given interval. A fresh ticker arms its first fire one full
// interval out; routers joining later simply participate from the next
// tick.
func tickerFor(k *sim.Kernel, interval sim.Duration) *ticker {
	ts, ok := k.Value(tickersKey{}).(*tickers)
	if !ok {
		ts = &tickers{byInterval: make(map[sim.Duration]*ticker)}
		k.SetValue(tickersKey{}, ts)
	}
	t := ts.byInterval[interval]
	if t == nil {
		t = &ticker{k: k, owner: ts, interval: interval}
		t.fn = t.fire
		ts.byInterval[interval] = t
		k.After(interval, t.fn)
	}
	return t
}

// join adds a router to the cycle. Membership order is join order, which
// EnableRIP makes node insertion order — the determinism contract.
func (t *ticker) join(r *Router) {
	r.inTicker = true
	t.routers = append(t.routers, r)
}

// fire runs one batched cycle: every still-running member expires stale
// routes and broadcasts, stopped members fall out. An emptied ticker
// retires itself so a later Start builds a fresh one.
func (t *ticker) fire() {
	live := t.routers[:0]
	for _, r := range t.routers {
		if !r.started {
			r.inTicker = false
			continue
		}
		live = append(live, r)
		r.expireRoutes()
		r.sendUpdates()
	}
	for i := len(live); i < len(t.routers); i++ {
		t.routers[i] = nil
	}
	t.routers = live
	if len(t.routers) == 0 {
		delete(t.owner.byInterval, t.interval)
		return
	}
	t.k.After(t.interval, t.fn)
}
