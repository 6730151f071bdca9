package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"darpanet/internal/ipv4"
	"darpanet/internal/stack"
)

// The barriers a net's label can be in routeCover's input; any other
// label names a next hop.
const (
	labelUnreached = iota // the node does not reach the net
	labelAttached         // the node is a station of the net
)

// routeCover reads data as a sorted run of disjoint prefixes, each
// labelled with a next hop or a barrier (attached, unreached), and holds
// the two ways the oracle can route them against each other: the
// per-prefix table, and the blocks hopRun.cover gives each run of
// same-next-hop prefixes, built as computeStaticRoutes builds them. Both
// tables get the same direct routes, the same operator default when the
// input asks for one, and the same interface taken down, and must answer
// every owned address alike. It is the body of FuzzRouteCover.
func routeCover(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	opts := next()
	var nets []*netInfo
	var labels []int
	at := uint64(0x0a000000)
	for len(data) > 0 && len(nets) < 64 {
		b, l := next(), next()
		size := uint64(1) << (6 - b%7) // a /26 to a /32
		start := (at+size-1)&^(size-1) + uint64(b>>3&3)*size
		if start+size > 1<<32 {
			break
		}
		nets = append(nets, &netInfo{prefix: ipv4.Prefix{Addr: ipv4.Addr(start), Bits: 32 - bits.TrailingZeros64(size)}})
		labels = append(labels, l)
		at = start + size
	}

	down := opts & 3 // the interface whose routes are unusable; 3 is none
	var perNet, blocks stack.RouteTable
	for _, tbl := range []*stack.RouteTable{&perNet, &blocks} {
		tbl.SetUsableFilter(func(r stack.Route) bool { return r.IfIndex != down })
		if opts&4 != 0 {
			tbl.Add(stack.Route{Via: 99, IfIndex: 2, Source: stack.SourceStatic})
		}
	}
	var run hopRun
	for dn, l := range labels {
		// A label byte's residue mod 6 is the barrier or next hop; the
		// next bit picks the interface, so one next hop can come out of
		// two.
		switch l % 6 {
		case labelUnreached:
		case labelAttached:
			direct := stack.Route{Prefix: nets[dn].prefix, IfIndex: 1, Source: stack.SourceDirect}
			perNet.Add(direct)
			blocks.Add(direct)
		default:
			a := arrival{via: ipv4.Addr(l % 6), ifIndex: int32(l / 6 % 2), dist: int32(1 + dn%5)}
			perNet.Add(stack.Route{Prefix: nets[dn].prefix, Via: a.via, IfIndex: int(a.ifIndex), Metric: int(a.dist), Source: stack.SourceStatic})
			if !run.extend(int32(dn), a) {
				run.cover(nets, blocks.Add)
				run = hopRun{first: int32(dn), end: int32(dn) + 1, arrival: a}
			}
		}
	}
	run.cover(nets, blocks.Add)

	// The blocks are disjoint and none is a default.
	var got []ipv4.Prefix
	for _, r := range blocks.Routes() {
		if r.Source == stack.SourceStatic && r.Via != 99 {
			got = append(got, r.Prefix)
		}
	}
	for i, p := range got {
		if p.Bits == 0 || i > 0 && lastAddr(got[i-1]) >= uint64(p.Addr) {
			t.Fatalf("blocks %v: %v is a default or overlaps the block before it", got, p)
		}
	}
	for _, ni := range nets {
		for a := uint64(ni.prefix.Addr); a <= lastAddr(ni.prefix); a++ {
			want, wok := perNet.Lookup(ipv4.Addr(a))
			have, hok := blocks.Lookup(ipv4.Addr(a))
			if wok != hok || want.Via != have.Via || want.IfIndex != have.IfIndex || want.Source != have.Source {
				t.Fatalf("%v in %v: blocks %v answer %v,%v; per-net %v,%v", ipv4.Addr(a), ni.prefix, got, have, hok, want, wok)
			}
		}
	}
}

// FuzzRouteCover is the differential fuzzer of the oracle's route
// aggregation: whatever the prefixes, labels and failed interface, the
// blocks answer every owned address as the per-prefix table does.
func FuzzRouteCover(f *testing.F) {
	f.Add([]byte{3, 0, 2, 0, 2, 0, 2, 0, 2})                           // four /26s through one hop
	f.Add([]byte{4, 2, 2, 1, 3, 10, 2, 4, 1, 2, 4, 6, 2, 24, 0, 0, 3}) // barriers, gaps, a default
	f.Add([]byte{1, 0, 2, 8, 2, 16, 3, 6, 4, 0, 5, 3, 3, 0, 2, 30, 2, 1, 1, 0, 2})
	f.Add([]byte{3, 0, 2, 0, 8, 0, 2, 0, 8}) // one next hop out of two interfaces
	f.Fuzz(routeCover)
}

// TestCoverTakesFewestBlocks pins the cover on hand-worked runs: what
// one block can hold takes one, a block grows into addresses no net owns
// but stops at a neighbouring net, and a misaligned run takes one block
// per aligned piece.
func TestCoverTakesFewestBlocks(t *testing.T) {
	nets := func(ps ...string) []*netInfo {
		var out []*netInfo
		for _, p := range ps {
			out = append(out, &netInfo{prefix: ipv4.MustParsePrefix(p)})
		}
		return out
	}
	for _, tc := range []struct {
		nets       []*netInfo
		first, end int32
		want       string
	}{
		// Four /24s inside one /22, between nets outside it.
		{nets("10.1.0.0/24", "10.1.4.0/24", "10.1.5.0/24", "10.1.6.0/24", "10.1.7.0/24", "10.1.8.0/24"), 1, 5, "[10.1.4.0/22]"},
		// The same /22 with its last quarter unowned, and the run ends
		// before it: the block still takes it.
		{nets("10.1.0.0/24", "10.1.4.0/24", "10.1.5.0/24", "10.1.6.0/24", "10.1.9.0/24"), 1, 4, "[10.1.4.0/22]"},
		// A run from 10.1.3 to 10.1.4 straddles a /22 boundary; its
		// neighbours stop either side from growing.
		{nets("10.1.2.0/24", "10.1.3.0/24", "10.1.4.0/24", "10.1.5.0/24"), 1, 3, "[10.1.3.0/24 10.1.4.0/24]"},
		// Alone in the address space, a run grows to half of it at most.
		{nets("10.1.4.0/24"), 0, 1, "[0.0.0.0/1]"},
	} {
		r := hopRun{first: tc.first, end: tc.end, arrival: arrival{via: 7, ifIndex: 1, dist: 2}}
		var got []ipv4.Prefix
		r.cover(tc.nets, func(rt stack.Route) { got = append(got, rt.Prefix) })
		if s := fmt.Sprint(got); s != tc.want {
			t.Errorf("run %d..%d of %v: blocks %s, want %s", tc.first, tc.end, tc.nets[0].prefix, s, tc.want)
		}
		if !slices.IsSortedFunc(got, ipv4.Prefix.Compare) {
			t.Errorf("blocks %v out of order", got)
		}
	}
}
