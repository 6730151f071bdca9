package tcp

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"darpanet/internal/packet"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
)

// bulkSteadyState opens one connection across the loss-free test net,
// pushes enough through it to warm every buffer the byte path keeps
// (send storage, segment scratch, packet pool, event slabs), and returns a
// step that streams one more send buffer's worth end to end. The receiver
// checks every byte against the pattern in place, so a recycled buffer
// handed to OnData too early shows up as a mismatch.
func bulkSteadyState(t testing.TB) (step func(), received, mismatched *int) {
	n := newTestNet(t, 5, 0)
	data := pattern(DefaultOptions().SendBufferSize)
	received, mismatched = new(int), new(int)
	n.t2.Listen(80, Options{}, func(c *Conn) {
		c.OnData(func(b []byte) {
			at := *received % len(data)
			for len(b) > 0 {
				m := min(len(b), len(data)-at)
				if !bytes.Equal(b[:m], data[at:at+m]) {
					*mismatched++
				}
				b, at = b[m:], 0
				*received += m
			}
		})
	})
	c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rest := 0
	write := func() {
		for rest > 0 {
			m, err := c.Write(data[len(data)-rest:])
			if err != nil || m == 0 {
				return
			}
			rest -= m
		}
	}
	c.OnWriteSpace(write)
	step = func() {
		rest = len(data)
		write()
		n.k.Run()
	}
	n.k.RunFor(time.Second)
	if c.State() != StateEstablished {
		t.Fatalf("state = %v, want ESTABLISHED", c.State())
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if *received != 16*len(data) || *mismatched != 0 {
		t.Fatalf("warm-up received %d of %d bytes, %d chunks mismatched", *received, 16*len(data), *mismatched)
	}
	return step, received, mismatched
}

// BenchmarkTCPBulkSteadyState pins an established bulk transfer at
// 0 allocs/op (benchguard baseline): send storage that is a ring,
// segments serialized through the transport's scratch, in-order payloads
// handed to the application without a copy. One op is one 32 KiB send
// buffer written, segmented, forwarded, delivered and acknowledged.
func BenchmarkTCPBulkSteadyState(b *testing.B) {
	step, received, mismatched := bulkSteadyState(b)
	start := *received
	b.SetBytes(int64(DefaultOptions().SendBufferSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if want := start + b.N*DefaultOptions().SendBufferSize; *received != want || *mismatched != 0 {
		b.Fatalf("received %d of %d bytes, %d chunks mismatched", *received, want, *mismatched)
	}
}

// TestTCPBulkSteadyStateZeroAlloc is the benchmark's claim as a plain
// test.
func TestTCPBulkSteadyStateZeroAlloc(t *testing.T) {
	step, _, mismatched := bulkSteadyState(t)
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("established bulk transfer allocates %.1f objects per send buffer, want 0", avg)
	}
	if *mismatched != 0 {
		t.Fatalf("%d chunks mismatched", *mismatched)
	}
}

// TestSendRingMatchesFlatBuffer drives the send storage with random
// queue / read / acknowledge sizes against a plain slice, through growth
// to the SendBufferSize cap and many trips around the ring.
func TestSendRingMatchesFlatBuffer(t *testing.T) {
	_, c := newRenoConn(t)
	c.opts.SendBufferSize = 1000
	rng := rand.New(rand.NewSource(1))
	var flat []byte
	next := byte(0)
	for i := 0; i < 5000; i++ {
		data := make([]byte, rng.Intn(c.opts.SendBufferSize-c.sndLen+1))
		for j := range data {
			data[j] = next
			next++
		}
		c.queueSend(data)
		flat = append(flat, data...)
		if c.sndLen != len(flat) || len(c.sndStore) > c.opts.SendBufferSize {
			t.Fatalf("step %d: %d bytes queued in %d of storage, want %d in at most %d",
				i, c.sndLen, len(c.sndStore), len(flat), c.opts.SendBufferSize)
		}
		off := rng.Intn(len(flat) + 1)
		n := rng.Intn(len(flat) - off + 1)
		a, b := c.sndSpan(off, n)
		if got := append(append([]byte(nil), a...), b...); !bytes.Equal(got, flat[off:off+n]) {
			t.Fatalf("step %d: sndSpan(%d, %d) differs from the flat buffer", i, off, n)
		}
		acked := rng.Intn(len(flat) + 1)
		c.sndDrop(acked)
		flat = flat[acked:]
	}
}

// TestOnDataSliceValidOnlyDuringCallback pins the OnData lifetime
// contract from both sides. An echo server that hands the callback's
// slice straight to Write stays correct, because Write copies before the
// stack recycles the segment's storage. And the storage really is
// recycled: under -tags pooldebug a slice kept past the callback is
// poisoned by the time the transfer ends.
func TestOnDataSliceValidOnlyDuringCallback(t *testing.T) {
	n := newTestNet(t, 11, 0.02)
	var kept []byte
	data := pattern(200_000)
	// The echo's send buffer holds the whole stream, so Write never
	// comes up short however the two directions' losses interleave.
	n.t2.Listen(7, Options{SendBufferSize: len(data)}, func(c *Conn) {
		c.OnData(func(b []byte) {
			if kept == nil {
				kept = b // what the contract forbids
			}
			if m, err := c.Write(b); m != len(b) || err != nil {
				t.Errorf("echo write: %d of %d bytes, err=%v", m, len(b), err)
			}
		})
		c.OnEOF(c.Close)
	})
	var echoed sink
	c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	echoed.attach(c)
	c.OnEstablished(func() { pump(c, data, true) })
	n.k.RunFor(10 * time.Minute)
	if !bytes.Equal(echoed.data, data) {
		t.Fatalf("echo corrupted: got %d bytes, want %d", len(echoed.data), len(data))
	}
	if c.Stats().Retransmits+c.Stats().FastRetransmits == 0 {
		t.Fatal("no retransmissions — the out-of-order path was not exercised")
	}
	if packet.PoisonEnabled && bytes.Equal(kept, data[:len(kept)]) {
		t.Fatal("a slice kept past the OnData callback still holds its bytes: the copy is back")
	}
}

// TestOutOfOrderListIgnoresCoveredResends is the first instalment of
// bounded receiver state: a go-back-N peer re-sending a window it has
// already sent must not grow the out-of-order list, only a segment that
// brings new bytes may.
func TestOutOfOrderListIgnoresCoveredResends(t *testing.T) {
	n := newTestNet(t, 1, 0)
	c := newConn(n.t2, Endpoint{Addr: n.h2.Addr(), Port: 80}, Endpoint{Addr: n.h1.Addr(), Port: 4000}, Options{}.withDefaults())
	c.state, c.rcvNxt = StateEstablished, 1000
	var got []byte
	c.OnData(func(b []byte) { got = append(got, b...) })
	seg := func(seq uint32, fill byte, ln int) {
		c.receiveData(&segment{seq: seq, payload: bytes.Repeat([]byte{fill}, ln)})
	}
	for round := 0; round < 5; round++ { // the hole at 1000 stays open
		seg(1100, 'b', 100)
		seg(1200, 'c', 100)
		seg(1150, 'x', 50) // inside 'b'
	}
	if len(c.ooo) != 2 {
		t.Fatalf("held %d out-of-order segments after 5 resends of the same 2, want 2", len(c.ooo))
	}
	seg(1250, 'd', 100) // overlaps 'c' but extends it: kept
	if len(c.ooo) != 3 {
		t.Fatalf("held %d segments, want 3: a segment bringing new bytes was dropped", len(c.ooo))
	}
	seg(1000, 'a', 100)
	want := bytes.Repeat([]byte{'a'}, 100)
	want = append(want, bytes.Repeat([]byte{'b'}, 100)...)
	want = append(want, bytes.Repeat([]byte{'c'}, 100)...)
	want = append(want, bytes.Repeat([]byte{'d'}, 50)...)
	if !bytes.Equal(got, want) || c.rcvNxt != 1350 || len(c.ooo) != 0 {
		t.Fatalf("drained %d bytes to rcvNxt %d with %d held, want 350 bytes to 1350 with 0", len(got), c.rcvNxt, len(c.ooo))
	}
	if len(c.oooFree) != 3 {
		t.Fatalf("%d buffers retired for reuse, want 3", len(c.oooFree))
	}
}

// TestBulkAcrossFragmentingLossyPathStrandsNothing is the soak for the
// whole byte path, meant for -tags pooldebug (scripts/check.sh pooldebug):
// concurrent transfers cross a gateway that fragments every segment for
// an MTU-256 net losing 1 % of its frames, so reassembly groups time out,
// segments arrive out of order and retransmissions refragment. Every byte
// must arrive intact, and once the connections are gone and the
// reassemblers flushed, no pooled buffer and no timer may be left behind.
func TestBulkAcrossFragmentingLossyPathStrandsNothing(t *testing.T) {
	k := sim.NewKernel(1988)
	near := phys.NewP2P(k, "near", phys.Config{BitsPerSec: 10_000_000, Delay: 2 * time.Millisecond, MTU: 1500, QueueLimit: 64})
	far := phys.NewP2P(k, "far", phys.Config{BitsPerSec: 10_000_000, Delay: 2 * time.Millisecond, MTU: 256, Loss: 0.01, QueueLimit: 256})
	n := assembleTestNet(k, near, far)
	opts := Options{MSS: 1400}
	const transfers = 4
	data := pattern(300_000)
	sinks := make([]*sink, transfers)
	for i := range sinks {
		s := &sink{}
		sinks[i] = s
		n.t2.Listen(uint16(80+i), opts, func(c *Conn) {
			s.attach(c)
			c.OnEOF(c.Close)
		})
		c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: uint16(80 + i)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		c.OnEstablished(func() { pump(c, data, true) })
	}
	k.RunFor(20 * time.Minute)
	for i, s := range sinks {
		if !bytes.Equal(s.data, data) {
			t.Fatalf("transfer %d corrupted: got %d bytes, want %d", i, len(s.data), len(data))
		}
	}
	reasm := n.h2.Reassembler().Stats()
	if reasm.Fragments == 0 || reasm.Timeouts == 0 {
		t.Fatalf("reassembly saw %d fragments and %d timeouts: the lossy fragmenting path was not exercised", reasm.Fragments, reasm.Timeouts)
	}
	if n.t1.ConnCount() != 0 || n.t2.ConnCount() != 0 {
		t.Fatalf("connections not torn down: %d + %d left", n.t1.ConnCount(), n.t2.ConnCount())
	}
	for _, node := range []*stack.Node{n.h1, n.gw, n.h2} {
		node.Reassembler().Flush()
	}
	if p := k.PendingEvents(); p != 0 {
		t.Fatalf("%d timers stranded after teardown and Flush", p)
	}
	if s := stack.PoolFor(k).Stats(); s.Gets != s.Puts {
		t.Fatalf("pooled buffers stranded: gets=%d puts=%d", s.Gets, s.Puts)
	}
}

// establishedPair opens one connection across the loss-free test net to
// a server that closes when it reads EOF, and returns the client end.
func establishedPair(t *testing.T) (*testNet, *Conn) {
	t.Helper()
	n := newTestNet(t, 3, 0)
	if _, err := n.t2.Listen(80, Options{}, func(c *Conn) { c.OnEOF(c.Close) }); err != nil {
		t.Fatal(err)
	}
	c, err := n.t1.Dial(Endpoint{Addr: n.h2.Addr(), Port: 80}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.k.RunFor(time.Second)
	if c.State() != StateEstablished {
		t.Fatalf("handshake did not complete: state = %v", c.State())
	}
	return n, c
}

// TestFinishedSendSideHoldsNoRing: once Close has queued the FIN and
// every byte is acknowledged, no code can read the send ring again, so
// the connection gives it back — at Close when the data is already acked,
// at the last ack when it is not. The FIN still goes out again when it
// is lost, and Write still refuses.
func TestFinishedSendSideHoldsNoRing(t *testing.T) {
	data := pattern(500) // one segment at the default MSS
	cases := []struct {
		name string
		// close writes data, closes and runs until the send side is
		// finished, checking the ring on the way.
		close       func(*testing.T, *testNet, *Conn)
		retransmits uint64
	}{
		{
			name: "close after the last ack",
			close: func(t *testing.T, n *testNet, c *Conn) {
				c.Write(data)
				n.k.RunFor(time.Second)
				if c.sndLen != 0 || c.sndStore == nil {
					t.Fatalf("open and drained: %d bytes queued in %d of storage, want 0 in a kept ring", c.sndLen, len(c.sndStore))
				}
				c.Close()
				if c.sndStore != nil || c.sndHead != 0 {
					t.Fatalf("closed with everything acked: ring of %d bytes, head %d, want none", len(c.sndStore), c.sndHead)
				}
			},
		},
		{
			name: "last ack after close, FIN lost once",
			close: func(t *testing.T, n *testNet, c *Conn) {
				c.Write(data)
				n.k.RunFor(3 * time.Millisecond) // the data has crossed the near link
				n.nearLink.SetDown(true)
				c.Close() // the FIN reaches the far end of the near link while it is cut
				if !c.finSent || c.sndStore == nil {
					t.Fatalf("closed with %d bytes unacked: finSent = %v, ring of %d bytes, want the FIN sent and the ring kept", c.sndLen, c.finSent, len(c.sndStore))
				}
				n.k.RunFor(3 * time.Millisecond)
				n.nearLink.SetDown(false)
				if n.nearLink.LostWhileDown() != 1 {
					t.Fatalf("%d frames lost to the cut, want 1 (the FIN)", n.nearLink.LostWhileDown())
				}
				n.k.RunFor(300 * time.Millisecond) // the delayed ACK of the data
				if c.State() != StateFinWait1 || c.sndLen != 0 {
					t.Fatalf("state %v with %d bytes queued, want FIN-WAIT-1 with the data acked and the FIN not", c.State(), c.sndLen)
				}
				if c.sndStore != nil || c.sndHead != 0 {
					t.Fatalf("last byte acked after Close: ring of %d bytes, head %d, want none", len(c.sndStore), c.sndHead)
				}
			},
			retransmits: 1, // the FIN, alone
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, c := establishedPair(t)
			tc.close(t, n, c)
			if m, err := c.Write([]byte("late")); m != 0 || err != ErrClosed {
				t.Fatalf("Write after Close = %d, %v, want 0, ErrClosed", m, err)
			}
			n.k.RunFor(10 * time.Second)
			if c.State() != StateTimeWait {
				t.Fatalf("state = %v, want TIME-WAIT: the FIN was not acked", c.State())
			}
			if c.sndStore != nil {
				t.Fatalf("ring of %d bytes came back after the send side finished", len(c.sndStore))
			}
			if got := c.stats.Retransmits; got != tc.retransmits {
				t.Fatalf("%d retransmissions, want %d", got, tc.retransmits)
			}
		})
	}
}

// TestDrainedRingIsKept: an open connection whose every byte is acked
// keeps its ring, so a keystroke flow that drains it after each ack
// writes again without allocating.
func TestDrainedRingIsKept(t *testing.T) {
	n, c := establishedPair(t)
	key := pattern(64)
	step := func() {
		if m, err := c.Write(key); m != len(key) || err != nil {
			t.Fatalf("Write = %d, %v", m, err)
		}
		n.k.Run()
		if c.sndLen != 0 || c.sndStore == nil {
			t.Fatalf("after the ack: %d bytes queued in %d of storage, want 0 in a kept ring", c.sndLen, len(c.sndStore))
		}
	}
	for i := 0; i < 8; i++ { // warm the byte path's buffers and event slabs
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("a write into a drained ring allocates %.1f objects, want 0", avg)
	}
}
