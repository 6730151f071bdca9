// Package packet provides the byte-level plumbing shared by every protocol
// layer: a serialization buffer that grows headers by prepending (the
// gopacket idiom — serialize payload first, then each successively lower
// layer in front of it), the Internet checksum from RFC 1071, and a
// size-classed buffer pool that makes the datagram hot path
// allocation-free in steady state.
package packet

// Buffer is a serialization buffer in which protocol headers are prepended
// in front of an existing payload. A packet is built from the top of the
// stack down: the application payload is appended, then TCP prepends its
// header, then IP prepends its header, and the final wire image is read
// with Bytes.
//
// The zero value is an empty buffer ready to use. Reset rebinds the same
// Buffer to pool-backed storage, so a long-lived Buffer (one per node)
// serializes an unbounded stream of datagrams without allocating.
type Buffer struct {
	data  []byte
	start int // index of first valid byte in data
	pool  *Pool
}

// Reset rebinds the buffer to fresh storage drawn from pool (which may be
// nil for a plain allocation): room for headroom bytes of headers in
// front of payload, which is copied. Any storage the buffer previously
// held is NOT released — the previous wire image's ownership was
// transferred to whoever it was handed to.
func (b *Buffer) Reset(pool *Pool, headroom int, payload []byte) {
	b.pool = pool
	b.data = pool.Get(headroom + len(payload))
	b.start = headroom
	copy(b.data[headroom:], payload)
}

// Release returns the buffer's storage to its pool and empties the
// buffer. Only the current owner may call it; every slice previously
// returned by Bytes is invalidated (and poisoned under -tags pooldebug).
func (b *Buffer) Release() {
	if b.pool != nil && b.data != nil {
		b.pool.Put(b.data)
	}
	b.data = nil
	b.start = 0
	b.pool = nil
}

// Bytes returns the current packet image. The slice aliases the buffer's
// storage: it is invalidated by the next Prepend, Reset or Release.
// Callers that keep the data past any of those must copy it.
func (b *Buffer) Bytes() []byte { return b.data[b.start:] }

// Len returns the number of valid bytes in the buffer.
func (b *Buffer) Len() int { return len(b.data) - b.start }

// Prepend makes room for n bytes in front of the current contents and
// returns the slice to fill in. It grows the buffer if the headroom is
// exhausted.
func (b *Buffer) Prepend(n int) []byte {
	if b.start < n {
		extra := n - b.start + 64
		grown := make([]byte, len(b.data)+extra)
		copy(grown[b.start+extra:], b.data[b.start:])
		if b.pool != nil {
			b.pool.Put(b.data)
		}
		b.data = grown
		b.start += extra
		b.pool = nil // grown storage is not pool memory of the right class
	}
	b.start -= n
	return b.data[b.start : b.start+n]
}
