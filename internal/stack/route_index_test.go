package stack

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
)

// refLookup is the pre-index linear algorithm, kept verbatim as the
// semantic reference the index must reproduce bit for bit. down is the
// set of interfaces, by bit index, whose routes it skips.
func refLookup(routes []Route, down uint64, dst ipv4.Addr) (Route, bool) {
	best := -1
	for i, r := range routes {
		if !r.Prefix.Contains(dst) {
			continue
		}
		if down>>r.IfIndex&1 != 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := routes[best]
		switch {
		case r.Prefix.Bits != b.Prefix.Bits:
			if r.Prefix.Bits > b.Prefix.Bits {
				best = i
			}
		case r.Source != b.Source:
			if r.Source > b.Source {
				best = i
			}
		case r.Metric < b.Metric:
			best = i
		}
	}
	if best < 0 {
		return Route{}, false
	}
	return routes[best], true
}

// refAdd is the linear replace-by-(prefix,source) semantics.
func refAdd(routes []Route, r Route) []Route {
	for i := range routes {
		if routes[i].Prefix == r.Prefix && routes[i].Source == r.Source {
			routes[i] = r
			return routes
		}
	}
	return append(routes, r)
}

var allSources = []RouteSource{SourceEGP, SourceRIP, SourceStatic, SourceDirect}

// downSets are the sets of interfaces the tests take down in turn, by
// bit index; index 0 is none. The random routes carry their metric in
// their interface index above its low two bits, so the second set takes
// down the routes whose low bits are 1 and the third those of metric 3
// or more.
var downSets = []uint64{0, 0x2222_2222_2222_2222, ^uint64(0xfff)}

// refTable drives a RouteTable and the linear reference side by side.
// Every mutation goes to both; check compares them.
type refTable struct {
	tbl  RouteTable
	ref  []Route
	down uint64 // the interfaces down, by bit index
}

// setDown makes the table a node's with interfaces 0-63, those in down
// down and the rest up.
func (p *refTable) setDown(down uint64) {
	p.down = down
	for i := range 64 {
		p.tbl.setIfUp(i, down>>i&1 == 0)
	}
}

func (p *refTable) add(r Route) {
	p.tbl.Add(r)
	p.ref = refAdd(p.ref, r)
}

// addBatch also scribbles over rs afterwards: AddBatch must not retain it.
func (p *refTable) addBatch(rs []Route) {
	for _, r := range rs {
		p.ref = refAdd(p.ref, r)
	}
	p.tbl.AddBatch(rs)
	for i := range rs {
		rs[i] = Route{Metric: -1}
	}
}

func (p *refTable) remove(t *testing.T, pfx ipv4.Prefix, src RouteSource) {
	t.Helper()
	want := false
	for i := range p.ref {
		if p.ref[i].Prefix == pfx && p.ref[i].Source == src {
			p.ref = append(p.ref[:i], p.ref[i+1:]...)
			want = true
			break
		}
	}
	if got := p.tbl.Remove(pfx, src); got != want {
		t.Fatalf("Remove(%s, %s) = %v want %v", pfx, src, got, want)
	}
}

func (p *refTable) removeIf(t *testing.T, match func(Route) bool) {
	t.Helper()
	kept, want := p.ref[:0], 0
	for _, r := range p.ref {
		if match(r) {
			want++
			continue
		}
		kept = append(kept, r)
	}
	p.ref = kept
	if got := p.tbl.RemoveIf(match); got != want {
		t.Fatalf("RemoveIf removed %d want %d", got, want)
	}
}

// check compares a lookup of every dst — first, so that a lookup
// served by a stale index before anything merges the table is caught —
// then the stored routes, unpacked (order included: first-wins
// tie-breaks depend on it), and the index's own invariants.
func (p *refTable) check(t *testing.T, dsts ...ipv4.Addr) {
	t.Helper()
	p.lookups(t, dsts...)
	if !slices.Equal(p.tbl.stored(), p.ref) {
		t.Fatalf("stored routes diverged from the reference: %d vs %d entries", p.tbl.Len(), len(p.ref))
	}
	checkIndex(t, &p.tbl)
}

// lookups is the per-destination half of check.
func (p *refTable) lookups(t *testing.T, dsts ...ipv4.Addr) {
	t.Helper()
	for _, dst := range dsts {
		got, gok := p.tbl.Lookup(dst)
		want, wok := refLookup(p.ref, p.down, dst)
		if gok != wok || got != want {
			t.Fatalf("Lookup(%s) = %v,%v want %v,%v (len=%d)", dst, got, gok, want, wok, p.tbl.Len())
		}
	}
}

// checkIndex verifies the structure a present index promises: it
// covers every route, all of them merged; the intervals start at
// 0.0.0.0, ascend, and no two adjacent ones share a head; at every
// address where either the index's answer or the longest covering prefix
// can change — each interval start, each prefix's first address and the
// address after its last — the head is the first stored route of the
// longest covering prefix, so the two agree everywhere between; and one
// chain per distinct prefix, in stored order, reaches every route
// exactly once.
func checkIndex(t *testing.T, tbl *RouteTable) {
	t.Helper()
	x := tbl.idx
	if x == nil {
		return
	}
	if tbl.merged != len(tbl.recs) {
		t.Fatalf("index: %d of %d routes merged", tbl.merged, len(tbl.recs))
	}
	if len(x.starts) == 0 || x.starts[0] != 0 || len(x.heads) != len(x.starts) {
		t.Fatalf("index: %d starts from %v, %d heads", len(x.starts), x.starts[:min(1, len(x.starts))], len(x.heads))
	}
	for i := 1; i < len(x.starts); i++ {
		if x.starts[i] <= x.starts[i-1] || x.heads[i] == x.heads[i-1] {
			t.Fatalf("index: interval %d starts %s after %s, head %d after %d", i, x.starts[i], x.starts[i-1], x.heads[i], x.heads[i-1])
		}
	}
	longest := func(a ipv4.Addr) int32 {
		best := int32(-1)
		for i := range tbl.recs {
			if c := &tbl.recs[i]; a.Mask(int(c.bits)) == c.addr && (best < 0 || c.bits > tbl.recs[best].bits) {
				best = int32(i)
			}
		}
		return best
	}
	points := slices.Clone(x.starts)
	first := map[ipv4.Prefix]int32{}
	for i := range tbl.recs {
		p := tbl.recs[i].route().Prefix
		if _, ok := first[p]; !ok {
			first[p] = int32(i)
		}
		points = append(points, p.Addr)
		if end := uint64(p.Addr) + 1<<(32-p.Bits); end < 1<<32 {
			points = append(points, ipv4.Addr(end))
		}
	}
	for _, a := range points {
		if got, want := x.chain(a), longest(a); got != want {
			t.Fatalf("index: head at %s is route %d, want %d", a, got, want)
		}
	}
	if x.next != nil && len(x.next) != len(tbl.recs) {
		t.Fatalf("index: next has %d entries for %d routes", len(x.next), len(tbl.recs))
	}
	seen := make([]bool, len(tbl.recs))
	for p, h := range first {
		prev := int32(-1)
		for i := h; i >= 0; i = x.after(i) {
			if seen[i] || i <= prev || tbl.recs[i].route().Prefix != p {
				t.Fatalf("index: chain of %s broken at route %d", p, i)
			}
			seen[i], prev = true, i
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("index: route %d (%v) on no chain", i, tbl.recs[i].route())
	}
}

// e16ShapedRoutes returns n static /24 routes with distinct prefixes —
// the shape of a transit gateway's table on the 2000-gateway internet
// (3 800 of them) — and a host address inside each.
func e16ShapedRoutes(n int) ([]Route, []ipv4.Addr) {
	routes := make([]Route, n)
	dsts := make([]ipv4.Addr, n)
	for i := range routes {
		a := ipv4.Addr(0x0a000000 + uint32(i)<<8)
		routes[i] = Route{
			Prefix:  ipv4.Prefix{Addr: a, Bits: 24},
			Via:     ipv4.Addr(0xac100000 + uint32(i%7)),
			IfIndex: i % 7,
			Metric:  1 + i%30,
			Source:  SourceStatic,
		}
		dsts[i] = a + 2
	}
	return routes, dsts
}

// blockRoutes returns a table of the shape the sharded static-route
// oracle gives a transit gateway of the 2000-gateway internet: the /24s
// from 10.1.0.0 to 10.16.255.0 in runs that leave through one neighbor,
// each run covered by the fewest aligned blocks, a directly attached net
// with a stub net behind it here and there, and a default: 82 routes
// of 11 prefix lengths, where the oracle's transit tables hold 70 to 103
// of 10 to 12. It also returns a host address in every /24.
func blockRoutes() ([]Route, []ipv4.Addr) {
	rng := rand.New(rand.NewSource(28))
	routes := []Route{{Via: 0xac100001, IfIndex: 0, Metric: 1, Source: SourceStatic}}
	var dsts []ipv4.Addr
	const first, end = 0x0a010000 >> 8, 0x0a110000 >> 8 // in /24s
	for u, hop := first, 0; u < end; hop = 1 - hop {
		if rng.Intn(8) == 0 { // an attached net and the stub behind it
			stub := 2 + rng.Intn(6)
			routes = append(routes,
				Route{Prefix: ipv4.Prefix{Addr: ipv4.Addr(u << 8), Bits: 24}, IfIndex: stub, Source: SourceDirect},
				Route{Prefix: ipv4.Prefix{Addr: ipv4.Addr((u + 1) << 8), Bits: 24}, Via: ipv4.Addr(u<<8 + 2), IfIndex: stub, Metric: 1, Source: SourceStatic})
			dsts = append(dsts, ipv4.Addr(u<<8+9), ipv4.Addr((u+1)<<8+9))
			u += 2
			continue
		}
		run := min(end, u+1+int(rng.ExpFloat64()*450))
		metric := 1 + rng.Intn(60)
		for u < run {
			size := 1
			for u%(2*size) == 0 && u+2*size <= run {
				size *= 2
			}
			routes = append(routes, Route{
				Prefix: ipv4.Prefix{Addr: ipv4.Addr(u << 8), Bits: 24 - bits.TrailingZeros(uint(size))},
				Via:    ipv4.Addr(0xac100001 + hop), IfIndex: hop, Metric: metric, Source: SourceStatic,
			})
			for ; size > 0; size, u = size-1, u+1 {
				dsts = append(dsts, ipv4.Addr(u<<8+2))
			}
		}
	}
	return routes, dsts
}

// TestRouteIndexEquivalence checks the indexed table against the linear
// reference: every stored route, every lookup, and the index's own
// structure, under each way the table is mutated.
func TestRouteIndexEquivalence(t *testing.T) {
	// Randomized adds, batches, capacity hints, removes and interfaces
	// going down and up, far past the index threshold. The route set is
	// built so same-length prefixes, duplicate (prefix, source) pairs,
	// overlapping lengths and a default route all occur.
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		addr := func() ipv4.Addr {
			// A small universe so prefixes overlap constantly.
			return ipv4.Addr(0x0a000000 | uint32(rng.Intn(8))<<16 | uint32(rng.Intn(8))<<8 | uint32(rng.Intn(4)))
		}
		route := func() Route {
			bits := []int{0, 8, 16, 24, 32}[rng.Intn(5)]
			r := Route{
				Prefix:  ipv4.Prefix{Addr: addr().Mask(bits), Bits: bits},
				Via:     addr(),
				IfIndex: rng.Intn(4),
				Metric:  rng.Intn(5),
				Source:  allSources[rng.Intn(len(allSources))],
			}
			r.IfIndex |= r.Metric << 2 // see downSets
			return r
		}
		var p refTable
		dsts := make([]ipv4.Addr, 40)
		widest := 0
		for step := 0; step < 1200; step++ {
			switch op := rng.Intn(20); {
			case op < 12: // add (duplicates replace)
				p.add(route())
			case op < 14: // batch, as the static oracle once installed
				rs := make([]Route, rng.Intn(24))
				for i := range rs {
					rs[i] = route()
				}
				p.addBatch(rs)
			case op < 15: // a capacity hint changes nothing observable
				p.tbl.Grow(rng.Intn(200))
			case op < 17 && len(p.ref) > 0: // remove an existing entry
				victim := p.ref[rng.Intn(len(p.ref))]
				p.remove(t, victim.Prefix, victim.Source)
			case op < 18: // bulk remove, as recomputeStaticRoutes does
				src, m := allSources[rng.Intn(len(allSources))], rng.Intn(5)
				p.removeIf(t, func(r Route) bool { return r.Source == src && r.Metric == m })
			default: // interfaces go down and up
				p.setDown(downSets[rng.Intn(len(downSets))])
			}
			for i := range dsts {
				dsts[i] = addr()
			}
			p.check(t, dsts...)
			widest = max(widest, p.tbl.Len())
		}
		if widest < 4*indexThreshold {
			t.Fatalf("test never got far past the index threshold: %d routes at most", widest)
		}
	})

	// One table grown a route at a time from empty to 2 048, looked up
	// after every Add: each Lookup past the threshold merges and indexes
	// the table anew, so the switch from the scan and every size after it
	// are crossed.
	t.Run("grow", func(t *testing.T) {
		routes, dsts := e16ShapedRoutes(2048)
		rng := rand.New(rand.NewSource(7))
		var p refTable
		for i, r := range routes {
			p.add(r)
			p.lookups(t, dsts[i], dsts[rng.Intn(i+1)], dsts[(i+1)%len(dsts)])
			if n := i + 1; n&(n-1) == 0 || n == indexThreshold-1 || n == indexThreshold+1 {
				p.check(t, dsts[:n]...) // everything installed so far
			}
		}
		// Replacing through the index keeps position, chain and index.
		for i := 0; i < len(routes); i += 97 {
			r := routes[i]
			r.Metric, r.Via = 99, 1
			p.add(r)
			if p.tbl.idx == nil {
				t.Fatalf("replacing %s dropped the index", r.Prefix)
			}
		}
		p.check(t, dsts...)
	})

	// All four sources on one prefix, in every insertion order, each out
	// its own interface, with every subset of them down: the chain walk
	// must pick what the scan picks.
	t.Run("sources", func(t *testing.T) {
		filler, _ := e16ShapedRoutes(2 * indexThreshold)
		pfx := ipv4.MustParsePrefix("192.168.7.0/24")
		dst := pfx.Host(9)
		perm := []int{0, 1, 2, 3}
		var visit func(k int)
		visit = func(k int) {
			if k < len(perm) {
				for i := k; i < len(perm); i++ {
					perm[k], perm[i] = perm[i], perm[k]
					visit(k + 1)
					perm[k], perm[i] = perm[i], perm[k]
				}
				return
			}
			for _, metric := range []func(j int) int{
				func(int) int { return 2 },   // source alone decides
				func(j int) int { return j }, // later insertions cost more
			} {
				var p refTable
				p.addBatch(slices.Clone(filler))
				for j, s := range perm {
					p.add(Route{Prefix: pfx, Via: ipv4.Addr(j + 1), IfIndex: 8 + s, Metric: metric(j), Source: allSources[s]})
				}
				for down := uint64(0); down < 1<<len(allSources); down++ {
					p.setDown(down << 8) // the filler leaves by interfaces 0-6
					p.check(t, dst)
				}
			}
		}
		visit(0)
	})

	// Fall-through: a destination covered at /32, /30, /24, /16, /8 and
	// /0, each out its own interface, with the interfaces of the longest
	// lengths going down one more at a time until nothing is left.
	t.Run("fallthrough", func(t *testing.T) {
		filler, _ := e16ShapedRoutes(2 * indexThreshold)
		var p refTable
		p.addBatch(filler)
		dst := ipv4.MustParseAddr("10.0.5.77")
		lengths := []int{32, 30, 24, 16, 8, 0}
		for i, n := range lengths {
			p.add(Route{Prefix: ipv4.Prefix{Addr: dst.Mask(n), Bits: n}, Via: ipv4.Addr(n + 1), IfIndex: 8 + i, Source: allSources[i%len(allSources)]})
		}
		for i, floor := range append(lengths, -1) {
			p.setDown((1<<i - 1) << 8) // the routes longer than floor

			p.check(t, dst)
			got, ok := p.tbl.Lookup(dst)
			if ok != (floor >= 0) || (ok && got.Prefix.Bits != floor) {
				t.Fatalf("with lengths above /%d unusable: Lookup = %v,%v", floor, got, ok)
			}
		}
	})

	// Fall-through three levels deep on a table of blocks: the /32, /24
	// and /16 covering the destination leave through interface 1, which
	// is down, so the /8 answers; with the /8 gone, the default does.
	t.Run("deep", func(t *testing.T) {
		routes, dsts := blockRoutes()
		var p refTable
		p.addBatch(routes)
		dst := ipv4.MustParseAddr("172.16.5.9")
		for _, l := range []struct{ n, ifc int }{{32, 1}, {24, 1}, {16, 1}, {8, 2}} {
			p.add(Route{Prefix: ipv4.Prefix{Addr: dst.Mask(l.n), Bits: l.n}, Via: ipv4.Addr(l.n), IfIndex: l.ifc, Source: SourceRIP})
		}
		p.setDown(1 << 1)
		for _, want := range []int{8, 0} {
			p.check(t, append(dsts, dst)...)
			if got, ok := p.tbl.Lookup(dst); !ok || got.Prefix.Bits != want {
				t.Fatalf("Lookup(%s) = %v,%v, want the /%d", dst, got, ok, want)
			}
			p.remove(t, ipv4.Prefix{Addr: dst.Mask(8), Bits: 8}, SourceRIP)
		}
	})

	// Prefixes that end at 255.255.255.255, whose interval end is 2^32.
	t.Run("top", func(t *testing.T) {
		filler, _ := e16ShapedRoutes(2 * indexThreshold)
		var p refTable
		p.addBatch(filler)
		for i, s := range []string{"255.255.255.255/32", "255.255.255.254/31", "255.255.255.0/24", "255.0.0.0/8", "224.0.0.0/3", "128.0.0.0/1"} {
			p.add(Route{Prefix: ipv4.MustParsePrefix(s), Via: ipv4.Addr(i + 1), IfIndex: i % 2, Source: SourceStatic})
		}
		dsts := []ipv4.Addr{ipv4.Broadcast, ipv4.Broadcast - 1, ipv4.Broadcast - 2, 0xffffff00, 0xfffffeff, 0xff000000, 0xfeffffff, 0xe0000000, 0xdfffffff, 0x80000000, 0x7fffffff}
		for _, down := range downSets {
			p.setDown(down)
			p.check(t, dsts...)
		}
		if x := p.tbl.idx; x == nil || x.heads[len(x.heads)-1] < 0 || p.tbl.recs[x.heads[len(x.heads)-1]].bits != 32 {
			t.Fatal("the last interval is not the /32 at 255.255.255.255")
		}
	})

	// A table holding only a default: 64 sources on 0.0.0.0/0 make one
	// interval and one chain, and a lone /0 indexed by hand makes one
	// interval of one route.
	t.Run("default only", func(t *testing.T) {
		dsts := []ipv4.Addr{0, 1, 0x0a000001, ipv4.Broadcast}
		var p refTable
		for src := 0; src < 2*indexThreshold; src++ {
			p.add(Route{Via: ipv4.Addr(src + 1), IfIndex: src % 4, Metric: src % 3, Source: RouteSource(src)})
		}
		for _, down := range append(downSets, ^uint64(0)) {
			p.setDown(down)
			p.check(t, dsts...)
		}
		if x := p.tbl.idx; x == nil || len(x.starts) != 1 || x.heads[0] != 0 {
			t.Fatalf("one interval headed by route 0, got %+v", x)
		}
		var one refTable
		one.add(Route{Via: 9, Source: SourceStatic})
		one.tbl.index(one.tbl.merge())
		if x := one.tbl.idx; len(x.starts) != 1 || x.heads[0] != 0 {
			t.Fatalf("one interval headed by route 0, got %+v", x)
		}
		one.check(t, dsts...)
	})

	// Remove, then re-add, a prefix: the route comes back at the end of
	// the stored order, and the index is rebuilt around it.
	t.Run("remove and re-add", func(t *testing.T) {
		routes, dsts := blockRoutes()
		var p refTable
		p.addBatch(slices.Clone(routes))
		p.check(t, dsts...)
		for _, i := range []int{0, 1, len(routes) / 2, len(routes) - 1} {
			r := routes[i]
			p.remove(t, r.Prefix, r.Source)
			p.check(t, dsts...)
			p.add(r)
			p.check(t, dsts...)
		}
	})

	// A replacing Add of an existing (prefix, source) keeps its position:
	// through the index when the prefix heads the interval at its address,
	// and through the merge when a longer prefix at the same address
	// shadows it there.
	t.Run("replace", func(t *testing.T) {
		filler, dsts := e16ShapedRoutes(2 * indexThreshold)
		var p refTable
		p.addBatch(slices.Clone(filler))
		wide := Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/16"), Via: 3, Source: SourceRIP}
		p.add(wide)
		dsts = append(dsts, ipv4.MustParseAddr("10.0.200.1"))
		p.check(t, dsts...)
		r := filler[5]
		r.Metric, r.Via = 77, 9
		p.add(r)
		if p.tbl.idx == nil {
			t.Fatalf("replacing %s, which heads its interval, dropped the index", r.Prefix)
		}
		p.check(t, dsts...)
		wide.Metric = 5
		p.add(wide) // 10.0.0.0/24 shadows it at 10.0.0.0
		if p.tbl.idx != nil {
			t.Fatalf("the index placed %s, which 10.0.0.0/24 shadows", wide.Prefix)
		}
		p.check(t, dsts...)
		if p.tbl.Len() != len(filler)+1 {
			t.Fatalf("%d routes after replacing, want %d", p.tbl.Len(), len(filler)+1)
		}
	})
}

// routeOps interprets data as a sequence of table operations over a
// small prefix universe, applying each to a RouteTable and the linear
// reference and comparing them after every step. It is the body of
// FuzzRouteTableOps; an exhausted input reads as zeros and ends the run.
func routeOps(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	addr := func() ipv4.Addr {
		b := next()
		return ipv4.Addr(0x0a000000 | uint32(b&7)<<16 | uint32(b>>3&7)<<8 | uint32(b>>6))
	}
	prefix := func() ipv4.Prefix {
		bits := []int{0, 8, 16, 24, 32}[next()%5]
		return ipv4.Prefix{Addr: addr().Mask(bits), Bits: bits}
	}
	route := func() Route {
		b := next()
		return Route{Prefix: prefix(), Via: addr(), IfIndex: b & 15, Metric: b >> 2 & 3, Source: allSources[b>>4&3]} // see downSets
	}
	var p refTable
	for len(data) > 0 {
		switch next() % 8 {
		case 0, 1:
			p.add(route())
		case 2:
			rs := make([]Route, next()%48)
			for i := range rs {
				rs[i] = route()
			}
			p.addBatch(rs)
		case 3:
			p.tbl.Grow(next())
		case 4:
			p.remove(t, prefix(), allSources[next()&3])
		case 5:
			b := next()
			p.removeIf(t, func(r Route) bool { return r.Source == allSources[b&3] && r.Metric == b>>2&3 })
		case 6:
			p.setDown(downSets[next()%len(downSets)])
		case 7: // a lookup can be what builds the index
		}
		p.check(t, addr(), addr(), addr(), addr())
	}
}

// FuzzRouteTableOps is stateful fuzzing of the one structure a gateway
// keeps: any operation sequence must leave the table, indexed or not,
// indistinguishable from the linear reference.
func FuzzRouteTableOps(f *testing.F) {
	rng := rand.New(rand.NewSource(1988))
	for _, n := range []int{64, 512, 4096} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{2, 47, 0x10, 3, 9, 4, 3, 9, 0, 7, 5, 0x10}) // batch past the threshold, remove, look up
	f.Fuzz(routeOps)
}

// TestRouteIndexLookupAllocs pins what the compact index is for:
// building an E16-shaped table and indexing it on the first lookup takes
// a handful of allocations — the record slice, the merge's keys and the
// index's arrays, not one slice per distinct prefix — and the lookup
// that sits on every large gateway's forwarding path takes none.
func TestRouteIndexLookupAllocs(t *testing.T) {
	batch, dsts := e16ShapedRoutes(3800)
	var tbl RouteTable
	if allocs := testing.AllocsPerRun(5, func() {
		tbl = RouteTable{}
		tbl.AddBatch(batch)
		tbl.Lookup(dsts[0])
	}); allocs > 8 {
		t.Fatalf("AddBatch of %d routes into an empty table and a lookup: %.0f allocations", len(batch), allocs)
	}
	if tbl.idx == nil || tbl.Len() != len(batch) {
		t.Fatalf("table not indexed: len %d", tbl.Len())
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := tbl.Lookup(dsts[i%len(dsts)]); !ok {
			panic(fmt.Sprint("lookup missed ", dsts[i%len(dsts)]))
		}
		i += 61
	}); allocs > 0 {
		t.Fatalf("indexed Lookup allocates: %.1f allocs/op", allocs)
	}
}

// mustPanic runs fn and returns the message it panicked with.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(v)
	}()
	fn()
	return ""
}

// TestRouteRecordRoundTrip packs and unpacks the extremes of every field
// the 16-byte record narrows, and every RouteSource: what Add accepts it
// gives back unchanged.
func TestRouteRecordRoundTrip(t *testing.T) {
	ext := Route{
		Prefix:  ipv4.Prefix{Addr: ipv4.Broadcast, Bits: 32},
		Via:     ipv4.Broadcast,
		IfIndex: maxIfIndex,
		Metric:  math.MaxInt32,
		Source:  math.MaxUint8,
	}
	routes := []Route{
		{}, ext,
		{Prefix: ipv4.Prefix{Addr: ipv4.Broadcast}}, {Prefix: ipv4.Prefix{Bits: 32}}, {Via: ipv4.Broadcast},
		{IfIndex: maxIfIndex}, {Metric: math.MaxInt32}, {Metric: math.MinInt32}, {Metric: -1}, {Source: math.MaxUint8},
	}
	for _, src := range allSources {
		r := ext
		r.Source = src
		routes = append(routes, r, Route{Source: src})
	}
	for _, r := range routes {
		c := pack(r)
		if got := c.route(); got != r {
			t.Errorf("pack/route: %+v came back %+v", r, got)
		}
		var tbl RouteTable
		tbl.Add(r)
		if got := tbl.Routes(); len(got) != 1 || got[0] != r {
			t.Errorf("Add/Routes: %+v came back %+v", r, got)
		}
	}
}

// TestAddRefusesUnstorableRoute drives Add with each field one step
// outside the record, on a small table and an indexed one: a panic that
// names the route, never a truncated entry.
func TestAddRefusesUnstorableRoute(t *testing.T) {
	good := Route{Prefix: ipv4.MustParsePrefix("10.9.0.0/16"), Via: 7, IfIndex: 2, Metric: 3, Source: SourceRIP}
	filler, _ := e16ShapedRoutes(2 * indexThreshold)
	for name, edit := range map[string]func(*Route){
		"ifindex above uint16": func(r *Route) { r.IfIndex = maxIfIndex + 1 },
		"ifindex negative":     func(r *Route) { r.IfIndex = -1 },
		"metric above int32":   func(r *Route) { r.Metric = math.MaxInt32; r.Metric++ },
		"metric below int32":   func(r *Route) { r.Metric = math.MinInt32; r.Metric-- },
		"prefix length 33":     func(r *Route) { r.Prefix.Bits = 33 },
		"prefix length -1":     func(r *Route) { r.Prefix.Bits = -1 },
		"source above uint8":   func(r *Route) { r.Source = math.MaxUint8 + 1 },
		"source negative":      func(r *Route) { r.Source = -1 },
	} {
		if strings.HasPrefix(name, "metric") && strconv.IntSize == 32 {
			continue // int is int32 there: no metric is out of range
		}
		bad := good
		edit(&bad)
		var small, large RouteTable
		large.AddBatch(filler)
		for _, tbl := range []*RouteTable{&small, &large} {
			before := tbl.Len()
			msg := mustPanic(t, func() { tbl.Add(bad) })
			if !strings.Contains(msg, bad.String()) {
				t.Errorf("%s: panic %q does not name the route %q", name, msg, bad)
			}
			if tbl.Len() != before {
				t.Errorf("%s: table grew from %d to %d routes", name, before, tbl.Len())
			}
		}
	}
}

// TestAttachInterfaceRefusesUnnameableIndex: the limit on a route's
// interface index is met where the index is minted. The last index a
// route can carry attaches and forwards; the next one panics before the
// medium is touched.
func TestAttachInterfaceRefusesUnnameableIndex(t *testing.T) {
	k := sim.NewKernel(1)
	lan := phys.NewBus(k, "lan", phys.Config{BitsPerSec: 10_000_000, MTU: 1500})
	n := NewNode(k, "wide")
	n.ifaces = make([]*Interface, maxIfIndex) // stand-ins for 65 535 attached interfaces
	pfx := ipv4.MustParsePrefix("10.0.1.0/24")
	ifc := n.AttachInterface(lan, pfx.Host(1), pfx)
	if rt, ok := n.Table.Lookup(pfx.Host(2)); !ok || rt.IfIndex != maxIfIndex || ifc.Index != maxIfIndex {
		t.Fatalf("interface %d: Lookup = %v,%v", ifc.Index, rt, ok)
	}
	msg := mustPanic(t, func() { n.AttachInterface(lan, pfx.Host(3), pfx) })
	if !strings.Contains(msg, "wide") || len(n.ifaces) != maxIfIndex+1 {
		t.Fatalf("panic %q with %d interfaces", msg, len(n.ifaces))
	}
}

// TestRouteTableFootprint pins what the packed record is for: 16 bytes a
// route, and a table of 3 800 /24s — a transit gateway's table of the
// 2000-gateway internet before same-next-hop blocks, sized by Grow —
// holding no more than 28 B of heap per route, index included, built
// and indexed by its first lookup in five allocations or fewer: records,
// the merge's keys, index, starts and heads. The bytes are counted from
// the capacities the table holds, which is what stays resident and does
// not vary with the allocator or the race detector. No prefix there has
// a second route, so no next array is made; giving one prefix a second
// route makes it.
func TestRouteTableFootprint(t *testing.T) {
	const recSize = unsafe.Sizeof(routeRec{})
	if recSize != 16 {
		t.Fatalf("routeRec is %d bytes, want 16", recSize)
	}
	routes, dsts := e16ShapedRoutes(3800)
	var tbl RouteTable
	allocs := testing.AllocsPerRun(5, func() {
		tbl = RouteTable{}
		tbl.Grow(len(routes))
		for _, r := range routes {
			tbl.Add(r)
		}
		tbl.Lookup(dsts[len(dsts)/2])
	})
	if _, ok := tbl.Lookup(dsts[len(dsts)/2]); !ok || tbl.idx == nil || tbl.Len() != len(routes) {
		t.Fatalf("table not built: len %d, indexed %v", tbl.Len(), tbl.idx != nil)
	}
	x := tbl.idx
	held := cap(tbl.recs)*int(recSize) + 4*cap(x.starts) + 4*cap(x.heads) + 4*cap(x.next) + int(unsafe.Sizeof(*x))
	// AllocsPerRun counts every malloc in the process, not the table's
	// own, and under -race -shuffle=on it reads mallocs no table made
	// (6 against 5): the count is held in other builds only. The bytes
	// per route hold in every build.
	if perRoute := float64(held) / float64(len(routes)); perRoute > 28 || allocs > 5 && !raceBuild {
		t.Fatalf("%d routes hold %.2f B/route, built in %.0f allocations; want <= 28 B in <= 5", len(routes), perRoute, allocs)
	}
	if tbl.idx.next != nil {
		t.Fatal("next array made for a table of one-route chains")
	}
	second := routes[7]
	second.Source = SourceRIP
	tbl.Add(second)
	tbl.Lookup(second.Prefix.Addr)
	if tbl.idx == nil || len(tbl.idx.next) != tbl.Len() {
		t.Fatalf("no next array of %d entries after a prefix got a second source", tbl.Len())
	}
	checkIndex(t, &tbl)
}
