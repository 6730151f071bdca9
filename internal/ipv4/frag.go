package ipv4

import (
	"errors"
	"slices"

	"darpanet/internal/metrics"
	"darpanet/internal/packet"
	"darpanet/internal/sim"
)

// ErrFragmentationNeeded is returned when a datagram exceeds the outgoing
// MTU but carries the don't-fragment flag.
var ErrFragmentationNeeded = errors.New("ipv4: fragmentation needed but DF set")

// Fragmenter walks the fragments of one datagram for one MTU. It is a
// value: building one and calling Next until it reports false touches no
// heap, which is what lets a gateway refragment transit traffic on the
// pooled hot path. The payloads Next returns alias the datagram's payload.
//
// Gateways fragment; only the destination host reassembles — the paper's
// point that in-network state is avoided even for this mechanism.
type Fragmenter struct {
	h       Header
	payload []byte
	chunk   int // payload bytes per fragment, a multiple of 8
	off     int // payload offset of the next fragment
	left    int // fragments not yet returned
}

// NewFragmenter prepares to split a datagram (header + payload) into
// fragments whose total length does not exceed mtu. The input header's ID
// identifies the group; offsets are in 8-byte units as the wire format
// requires. A datagram that already fits yields itself as its only
// fragment.
func NewFragmenter(h Header, payload []byte, mtu int) (Fragmenter, error) {
	f := Fragmenter{h: h, payload: payload, left: 1}
	if HeaderLen+len(payload) <= mtu {
		return f, nil
	}
	if h.DF {
		return Fragmenter{}, ErrFragmentationNeeded
	}
	if mtu < HeaderLen+8 {
		return Fragmenter{}, errors.New("ipv4: mtu too small to fragment")
	}
	f.chunk = (mtu - HeaderLen) &^ 7
	f.left = (len(payload) + f.chunk - 1) / f.chunk
	return f, nil
}

// Count returns how many fragments Next has yet to return.
func (f *Fragmenter) Count() int { return f.left }

// Next returns the next fragment's header and payload, or false once the
// datagram is exhausted.
func (f *Fragmenter) Next() (Header, []byte, bool) {
	if f.left == 0 {
		return Header{}, nil, false
	}
	f.left--
	end := len(f.payload)
	if f.left > 0 {
		end = f.off + f.chunk
	}
	fh := f.h
	fh.FragOff = f.h.FragOff + f.off
	fh.MF = f.left > 0 || f.h.MF
	p := f.payload[f.off:end]
	f.off = end
	return fh, p, true
}

// Fragment collects a Fragmenter's output into slices, for tests and
// probes that want every fragment at once; the forwarding path iterates
// the Fragmenter directly.
func Fragment(h Header, payload []byte, mtu int) ([]Header, [][]byte, error) {
	f, err := NewFragmenter(h, payload, mtu)
	if err != nil {
		return nil, nil, err
	}
	hs := make([]Header, 0, f.Count())
	ps := make([][]byte, 0, f.Count())
	for fh, p, ok := f.Next(); ok; fh, p, ok = f.Next() {
		hs = append(hs, fh)
		ps = append(ps, p)
	}
	return hs, ps, nil
}

// reassemblyKey identifies a fragment group: the RFC 791 tuple.
type reassemblyKey struct {
	src, dst Addr
	proto    uint8
	id       uint16
}

type fragPiece struct {
	off  int
	data []byte
}

// fragGroup is one partially reassembled datagram. Groups are recycled
// through the reassembler's free list: the pieces backing and the bound
// expiry func outlive any one datagram.
type fragGroup struct {
	r        *Reassembler
	key      reassemblyKey
	pieces   []fragPiece // offset-sorted; equal offsets in arrival order
	totalLen int         // payload length once the last fragment arrives; -1 unknown
	timer    sim.Timer
	expireFn func() // g.expire, bound once
	tos      uint8
	ttl      uint8
}

// expire is the reassembly deadline: the incomplete group is discarded.
func (g *fragGroup) expire() {
	g.r.stats.Timeouts++
	g.r.drop(g)
}

// ReassemblerStats counts reassembly outcomes.
type ReassemblerStats struct {
	Datagrams uint64 // complete datagrams produced
	Fragments uint64 // fragments accepted
	Timeouts  uint64 // groups dropped at the reassembly deadline
}

// Reassembler reconstructs datagrams from fragments at the destination
// host. Incomplete groups are discarded after Timeout, as RFC 791
// prescribes; there is no per-fragment retransmission — recovering the loss
// is the transport's job (fate-sharing again).
type Reassembler struct {
	k       *sim.Kernel
	timeout sim.Duration
	groups  map[reassemblyKey]*fragGroup
	free    []*fragGroup // retired groups awaiting reuse
	stats   ReassemblerStats
	pool    *packet.Pool
}

// DefaultReassemblyTimeout matches the traditional 30-second upper bound.
const DefaultReassemblyTimeout = 30 * 1e9

// NewReassembler creates a reassembler with the given group timeout
// (DefaultReassemblyTimeout if zero).
func NewReassembler(k *sim.Kernel, timeout sim.Duration) *Reassembler {
	if timeout <= 0 {
		timeout = sim.Duration(DefaultReassemblyTimeout)
	}
	return &Reassembler{k: k, timeout: timeout, groups: make(map[reassemblyKey]*fragGroup)}
}

// SetPool makes the reassembler hold fragment copies and build reassembled
// payloads in pool-backed storage. A reassembled payload returned by Add is
// then owned by the caller, who puts it back into the same pool when the
// protocol handler returns.
func (r *Reassembler) SetPool(p *packet.Pool) { r.pool = p }

// Stats returns a copy of the reassembly counters.
func (r *Reassembler) Stats() ReassemblerStats { return r.stats }

// RegisterMetrics binds the reassembly counters into reg under
// <node>/reasm/..., plus a gauge for incomplete groups still held.
func (r *Reassembler) RegisterMetrics(reg *metrics.Registry, node string) {
	reg.Counter(node, "reasm", "datagrams", &r.stats.Datagrams)
	reg.Counter(node, "reasm", "fragments", &r.stats.Fragments)
	reg.Counter(node, "reasm", "timeouts", &r.stats.Timeouts)
	reg.Gauge(node, "reasm", "pending", func() uint64 { return uint64(len(r.groups)) })
}

// Pending returns the number of incomplete fragment groups held.
func (r *Reassembler) Pending() int { return len(r.groups) }

// Flush discards every incomplete fragment group immediately: pending
// reassembly timers are cancelled and pooled fragment storage is
// released. Used on node teardown so a crash strands neither timers nor
// buffers.
func (r *Reassembler) Flush() {
	for _, g := range r.groups {
		r.stats.Timeouts++
		r.drop(g)
	}
}

// group returns the group a fragment with header h belongs to, starting
// one (and its deadline) if this is the first fragment seen.
func (r *Reassembler) group(h Header) *fragGroup {
	key := reassemblyKey{h.Src, h.Dst, h.Proto, h.ID}
	if g := r.groups[key]; g != nil {
		return g
	}
	var g *fragGroup
	if n := len(r.free); n > 0 {
		g, r.free[n-1] = r.free[n-1], nil
		r.free = r.free[:n-1]
	} else {
		g = &fragGroup{r: r}
		g.expireFn = g.expire
	}
	g.key, g.totalLen, g.tos, g.ttl = key, -1, h.TOS, h.TTL
	g.timer = r.k.After(r.timeout, g.expireFn)
	r.groups[key] = g
	return g
}

// drop forgets group g: its deadline is cancelled (a no-op when the
// deadline is what is running), its pieces go back to the pool and the
// group to the free list.
func (r *Reassembler) drop(g *fragGroup) {
	g.timer.Stop()
	for i := range g.pieces {
		r.pool.Put(g.pieces[i].data)
		g.pieces[i].data = nil
	}
	g.pieces = g.pieces[:0]
	delete(r.groups, g.key)
	r.free = append(r.free, g)
}

// Add accepts one fragment. When the fragment completes its datagram, Add
// returns the reassembled header (offsets cleared, total length of the
// whole datagram) and full payload with done=true. Unfragmented datagrams
// pass straight through (the returned payload aliases the input).
//
// Fragment payloads are copied: the caller's storage may be pool-backed
// and is released as soon as Add returns. With SetPool the copies and the
// reassembled payload come from the pool, and the caller owns (and must
// Put back) a reassembled result.
//
// Where fragments overlap, the lower offset wins each byte, and between
// equal offsets the earlier arrival.
func (r *Reassembler) Add(h Header, payload []byte) (Header, []byte, bool) {
	if !h.MF && h.FragOff == 0 {
		r.stats.Datagrams++
		return h, payload, true
	}
	r.stats.Fragments++
	g := r.group(h)
	piece := r.pool.Get(len(payload))
	copy(piece, payload)
	// Insert behind every piece at the same or a lower offset.
	at := len(g.pieces)
	for at > 0 && g.pieces[at-1].off > h.FragOff {
		at--
	}
	g.pieces = slices.Insert(g.pieces, at, fragPiece{off: h.FragOff, data: piece})
	if !h.MF {
		g.totalLen = h.FragOff + len(payload)
	}
	if g.totalLen < 0 {
		return Header{}, nil, false
	}
	// Check contiguous coverage of [0, totalLen).
	covered := 0
	for _, p := range g.pieces {
		if p.off > covered {
			return Header{}, nil, false // hole remains
		}
		covered = max(covered, p.off+len(p.data))
	}
	if covered < g.totalLen {
		return Header{}, nil, false
	}
	// Complete: splice. Walking in offset order, everything below covered
	// is already written, so each piece contributes exactly its bytes in
	// [covered, end) — first writer wins without a per-byte map.
	buf := r.pool.Get(g.totalLen)
	covered = 0
	for _, p := range g.pieces {
		if end := min(p.off+len(p.data), g.totalLen); end > covered {
			copy(buf[covered:end], p.data[covered-p.off:])
			covered = end
		}
	}
	out := h
	out.MF = false
	out.FragOff = 0
	out.TOS = g.tos
	out.TTL = g.ttl
	out.TotalLen = HeaderLen + g.totalLen
	r.drop(g)
	r.stats.Datagrams++
	return out, buf, true
}
