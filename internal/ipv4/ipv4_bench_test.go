package ipv4

import (
	"testing"

	"darpanet/internal/packet"
	"darpanet/internal/sim"
)

func BenchmarkHeaderMarshal(b *testing.B) {
	h := mkHeader()
	payload := make([]byte, 536)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := newBuffer(HeaderLen, payload)
		if err := h.Marshal(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(HeaderLen + 536)
}

func BenchmarkHeaderParse(b *testing.B) {
	h := mkHeader()
	buf := newBuffer(HeaderLen, make([]byte, 536))
	h.Marshal(buf)
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, _, err := Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrementTTL(b *testing.B) {
	h := mkHeader()
	h.TTL = 255
	buf := newBuffer(HeaderLen, nil)
	h.Marshal(buf)
	raw := buf.Bytes()
	for i := 0; i < b.N; i++ {
		raw[8] = 64 // reset
		DecrementTTL(raw)
	}
}

func BenchmarkFragmentReassemble(b *testing.B) {
	k := sim.NewKernel(1)
	pool := packet.NewPool()
	r := NewReassembler(k, 0)
	r.SetPool(pool)
	h := fragHeader()
	payload := seqPayload(4000)
	b.SetBytes(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ID = uint16(i)
		f, err := NewFragmenter(h, payload, 576)
		if err != nil {
			b.Fatal(err)
		}
		done := false
		for fh, p, ok := f.Next(); ok; fh, p, ok = f.Next() {
			if _, whole, d := r.Add(fh, p); d {
				done = true
				pool.Put(whole)
			}
		}
		if !done {
			b.Fatal("not reassembled")
		}
	}
}
