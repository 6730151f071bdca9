package packet

// Pool is a size-classed free list of serialization buffers. The datagram
// hot path — serialize, transmit, deliver, release — allocates nothing in
// steady state: every wire image lives in a buffer drawn from a Pool and
// explicitly returned with Put (or Buffer.Release / phys.Frame.Release)
// when the last reader is done with it.
//
// Ownership contract: a buffer obtained from Get has exactly one owner at
// a time. Handing the buffer to another component (a NIC's Send, a frame
// delivery) transfers ownership; the previous owner must not touch the
// bytes again. Code that needs the data past the ownership transfer must
// copy it first (see Clone and Buffer.Copy). Violations are invisible in
// normal builds but caught loudly under the pooldebug build tag, which
// scribbles over released buffers and panics on double release.
//
// A Pool is intentionally not safe for concurrent use: one pool belongs
// to one simulation kernel, which runs single-threaded. Parallel
// campaigns run one pool per kernel, so no cross-replica state exists —
// the same no-globals rule that keeps runs deterministic.
type Pool struct {
	classes  [poolClasses][][]byte
	disabled bool
	stats    PoolStats
	debug    poolDebugState
}

// PoolStats counts pool traffic, for tests and diagnostics.
type PoolStats struct {
	Gets     uint64 // buffers handed out
	Puts     uint64 // buffers returned
	Hits     uint64 // Gets served from a free list
	Misses   uint64 // Gets that had to allocate
	Discards uint64 // Puts dropped (undersized buffer or full class)
}

// Pool size classes are powers of two from 64 bytes to 64 KiB: small
// enough that an ACK does not pin a jumbo buffer, large enough for the
// biggest datagram the 16-bit IP total-length field can describe.
const (
	poolMinShift  = 6  // 64 B
	poolMaxShift  = 16 // 64 KiB
	poolClasses   = poolMaxShift - poolMinShift + 1
	poolClassCap  = 512 // free buffers retained per class
	poolMaxBuffer = 1 << poolMaxShift
)

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// classFor returns the class index whose buffers hold at least n bytes,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n > poolMaxBuffer {
		return -1
	}
	c := 0
	for size := 1 << poolMinShift; size < n; size <<= 1 {
		c++
	}
	return c
}

// classSize returns the byte capacity of class c.
func classSize(c int) int { return 1 << (poolMinShift + c) }

// Get returns a buffer of length n. The contents are unspecified (the
// buffer may have lived a previous life); callers overwrite every byte
// they transmit. Put the buffer back when done with it.
func (p *Pool) Get(n int) []byte {
	if p == nil || p.disabled {
		return make([]byte, n)
	}
	p.stats.Gets++
	c := classFor(n)
	if c >= 0 {
		if l := p.classes[c]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			p.classes[c] = l[:len(l)-1]
			p.stats.Hits++
			p.debug.onGet(b)
			return b[:n]
		}
	}
	p.stats.Misses++
	if c < 0 {
		return make([]byte, n)
	}
	return make([]byte, classSize(c))[:n]
}

// Put returns a buffer to the pool. The caller must own the buffer and
// must not touch it afterwards; under -tags pooldebug the contents are
// scribbled over and a second Put of the same buffer panics. Buffers
// smaller than the smallest class, or arriving when their class is full,
// are discarded to the garbage collector.
func (p *Pool) Put(b []byte) {
	if p == nil || p.disabled || b == nil {
		return
	}
	p.stats.Puts++
	// Class by capacity, rounding down, so a Get of the class size is
	// always satisfiable by what the class holds.
	c := -1
	for i := poolClasses - 1; i >= 0; i-- {
		if cap(b) >= classSize(i) {
			c = i
			break
		}
	}
	if c < 0 || len(p.classes[c]) >= poolClassCap {
		p.stats.Discards++
		return
	}
	p.debug.onPut(b)
	p.classes[c] = append(p.classes[c], b[:classSize(c)])
}

// Stats returns a copy of the pool counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return p.stats
}

// SetDisabled switches the pool to pass-through mode: Get allocates
// fresh, Put discards. The determinism tests run identical campaigns with
// pooling on and off and require byte-identical results; any divergence
// means a buffer was read after release.
func (p *Pool) SetDisabled(disabled bool) { p.disabled = disabled }

// Free returns the number of buffers currently held on free lists.
func (p *Pool) Free() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, c := range p.classes {
		n += len(c)
	}
	return n
}
