package ipv4

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"darpanet/internal/packet"
	"darpanet/internal/sim"
)

// arrival is one fragment as the oracle remembers it.
type arrival struct {
	off  int
	mf   bool
	data []byte
}

// oracleSplice is the reassembler's previous splice, kept as the
// reference: sort the arrivals by offset (stably, so equal offsets stay in
// arrival order), require contiguous coverage of [0, totalLen), then write
// byte by byte with a seen map so the first writer wins each byte. It
// reports the payload and whether the arrivals complete a datagram.
func oracleSplice(arrivals []arrival) ([]byte, bool) {
	totalLen := -1
	for _, a := range arrivals { // the latest last-fragment sets the length
		if !a.mf {
			totalLen = a.off + len(a.data)
		}
	}
	if totalLen < 0 {
		return nil, false
	}
	pieces := append([]arrival(nil), arrivals...)
	sort.SliceStable(pieces, func(i, j int) bool { return pieces[i].off < pieces[j].off })
	covered := 0
	for _, p := range pieces {
		if p.off > covered {
			return nil, false
		}
		covered = max(covered, p.off+len(p.data))
	}
	if covered < totalLen {
		return nil, false
	}
	buf := make([]byte, totalLen)
	seen := make([]bool, totalLen)
	for _, p := range pieces {
		for i, b := range p.data {
			if at := p.off + i; at < totalLen && !seen[at] {
				buf[at] = b
				seen[at] = true
			}
		}
	}
	return buf, true
}

// randomArrivals cuts a random datagram into 8-byte-aligned fragments and
// then makes the delivery hostile: overlapping extras carrying different
// bytes (so the test sees who won each byte), exact duplicates, fragments
// sharing an offset but not a length, one that runs past the datagram's
// end, a second last fragment that disagrees about where the end is — all
// shuffled.
func randomArrivals(rng *rand.Rand) []arrival {
	total := 1 + rng.Intn(800)
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var out []arrival
	for off := 0; off < total; {
		n := min(8*(1+rng.Intn(12)), total-off)
		out = append(out, arrival{off: off, mf: off+n < total, data: fill(n)})
		off += n
	}
	for extras := rng.Intn(6); extras > 0; extras-- {
		switch base := out[rng.Intn(len(out))]; rng.Intn(5) {
		case 0: // exact duplicate
			out = append(out, base)
		case 1: // same offset, other bytes, other length
			out = append(out, arrival{off: base.off, mf: true, data: fill(8 * (1 + rng.Intn(12)))})
		case 2: // straddles its neighbours
			off := max(0, base.off-8*rng.Intn(3))
			out = append(out, arrival{off: off, mf: true, data: fill(8 * (1 + rng.Intn(16)))})
		case 3: // claims bytes beyond the end of the datagram
			out = append(out, arrival{off: total &^ 7, mf: true, data: fill(8 * (1 + rng.Intn(4)))})
		case 4: // a second, contradicting last fragment
			out = append(out, arrival{off: base.off, mf: false, data: fill(1 + rng.Intn(40))})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestReassemblerMatchesBytewiseOracle feeds the reassembler random
// order, overlap, duplicates and equal-offset fragments, and after every
// fragment requires exactly what the byte-wise splice gives for the
// arrivals since the last completed datagram. The pooled reassembler is
// checked too: whatever happens, completion plus Flush strands no buffer.
func TestReassemblerMatchesBytewiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1988))
	pool := packet.NewPool()
	r := NewReassembler(sim.NewKernel(1), 0)
	r.SetPool(pool)
	completed := 0
	for trial := 0; trial < 5000; trial++ {
		h := fragHeader()
		h.ID = uint16(trial)
		var since []arrival
		for _, a := range randomArrivals(rng) {
			fh := h
			fh.FragOff, fh.MF = a.off, a.mf
			if a.off == 0 && !a.mf {
				// Not a fragment at all: a whole datagram passes through
				// and leaves the group it shares an ID with alone.
				if _, got, done := r.Add(fh, a.data); !done || !bytes.Equal(got, a.data) {
					t.Fatalf("trial %d: unfragmented datagram did not pass through", trial)
				}
				continue
			}
			since = append(since, a)
			full, got, done := r.Add(fh, a.data)
			want, wantDone := oracleSplice(since)
			if done != wantDone {
				t.Fatalf("trial %d: done=%v after %d fragments, oracle says %v", trial, done, len(since), wantDone)
			}
			if !done {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d: reassembled payload differs from the byte-wise splice", trial)
			}
			if full.TotalLen != HeaderLen+len(want) || full.MF || full.FragOff != 0 {
				t.Fatalf("trial %d: reassembled header %v for %d bytes", trial, full, len(want))
			}
			pool.Put(got)
			completed++
			since = nil
		}
	}
	if completed < 4000 {
		t.Fatalf("only %d of 5000 trials completed a datagram: the generator is not exercising the splice", completed)
	}
	r.Flush()
	if s := pool.Stats(); r.Pending() != 0 || s.Gets != s.Puts {
		t.Fatalf("after Flush: %d groups pending, pool gets=%d puts=%d", r.Pending(), s.Gets, s.Puts)
	}
}

// TestReassembleEqualOffsetsArrivalOrder pins the overlap rule the
// sorted insertion makes deterministic: between two fragments at the same
// offset, the one that arrived first supplies the bytes they share.
func TestReassembleEqualOffsetsArrivalOrder(t *testing.T) {
	r := NewReassembler(sim.NewKernel(1), 0)
	h := fragHeader()
	add := func(off int, mf bool, fill byte, n int) ([]byte, bool) {
		fh := h
		fh.FragOff, fh.MF = off, mf
		_, data, done := r.Add(fh, bytes.Repeat([]byte{fill}, n))
		return data, done
	}
	add(8, true, 'A', 8)  // first at offset 8
	add(8, true, 'B', 16) // second at offset 8, longer
	add(24, false, 'C', 4)
	got, done := add(0, true, 'D', 8)
	if !done {
		t.Fatal("datagram incomplete")
	}
	if want := "DDDDDDDDAAAAAAAABBBBBBBBCCCC"; string(got) != want {
		t.Fatalf("reassembled %q, want %q", got, want)
	}
}

// TestFragmentReassembleZeroAlloc is the ipv4 layer's share of the
// allocation-free fragmenting path: cutting a datagram with the cursor and
// reassembling it through a warm pooled reassembler touches no heap.
func TestFragmentReassembleZeroAlloc(t *testing.T) {
	pool := packet.NewPool()
	r := NewReassembler(sim.NewKernel(1), 0)
	r.SetPool(pool)
	h := fragHeader()
	payload := seqPayload(1400)
	roundTrip := func() {
		h.ID++
		f, err := NewFragmenter(h, payload, 256)
		if err != nil {
			t.Fatal(err)
		}
		for fh, p, ok := f.Next(); ok; fh, p, ok = f.Next() {
			if _, whole, done := r.Add(fh, p); done {
				if f.Count() != 0 || !bytes.Equal(whole, payload) {
					t.Fatal("reassembly wrong")
				}
				pool.Put(whole)
			}
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Fatalf("fragment -> reassemble allocates %.1f objects per datagram, want 0", avg)
	}
	if r.Pending() != 0 {
		t.Fatal("groups left pending")
	}
}
