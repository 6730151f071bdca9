package workload

import (
	"bytes"
	"fmt"
	"math/rand"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
)

// Flow is one conversation and its measured outcome: a bulk transfer or
// a query train started on its own (StartBulk, StartQueries), or a
// session the Engine generated. Fields are updated live as the flow
// progresses; read them after the kernel run. On a sharded build the two
// ends may run in different regions, and each field is written by one
// end's kernel only.
type Flow struct {
	ID      int
	Profile Profile
	Src     string
	Dst     string
	// Size is the offered application byte count: the transfer size
	// (bulk), keystrokes+echoes (interactive), expected response bytes
	// (rr), or the voice stream's payload budget.
	Size  int
	Start sim.Time
	// Established reports the transport-level session came up (TCP
	// handshake completed; always true for UDP/NVP flows).
	Established bool
	// Done reports the flow completed its application exchange; End is
	// when. A flow that never completes keeps Done false — under
	// congestion collapse, many do.
	Done bool
	End  sim.Time
	// Err is the error that ended the conversation, if one did: a
	// refused listen, dial or bind, or the sending side's close error. A
	// bulk flow can be Done and still carry Err, when its sender failed
	// after the receiver had counted every byte.
	Err error
	// BytesRx counts application bytes delivered to the receiving side
	// (for voice: bytes that made their playout deadline).
	BytesRx int
	// Mismatched counts delivered bulk bytes that differ from the
	// pattern at their offset. Only the endpoint can vouch for the
	// bytes, so the one bulk receiver checks every chunk.
	Mismatched int
	// MaxStall is the longest gap between deliveries to the bulk
	// receiver, the first counted from Start.
	MaxStall sim.Duration
	// Sent counts a query train's requests so far; RTTs holds one
	// round-trip time per answered request, in arrival order.
	Sent int
	RTTs []sim.Duration
	// Retrans counts TCP retransmitted segments attributed to this flow
	// (timeout plus fast retransmits; zero for UDP and voice flows).
	Retrans uint64
	// OnTime/Late/Lost carry the voice receiver's verdict (Voice only).
	OnTime, Late, Lost uint64
	// Conn is the sending side's connection (TCP flows that dialled).
	Conn *tcp.Conn

	lastRx sim.Time // the bulk receiver's latest delivery
	// failed marks an engine flow that ended in error before it
	// completed: the engine's flows_failed.
	failed      bool
	lastRetrans uint64
	// bins holds per-bin retransmission counts sampled by the engine's
	// bin ticker; binBase is the global bin index of bins[0].
	bins    []uint32
	binBase int
	// interactive state
	keysLeft int
	keyTimer sim.Timer
	keyFn    func()
}

// FCT returns the flow completion time (0 if the flow never completed).
func (f *Flow) FCT() sim.Duration {
	if !f.Done {
		return 0
	}
	return f.End.Sub(f.Start)
}

// PickPair draws distinct source and destination hosts: two draws from
// rng per pair.
func PickPair(rng *rand.Rand, hosts []string) (string, string) {
	a := rng.Intn(len(hosts))
	b := rng.Intn(len(hosts) - 1)
	if b >= a {
		b++
	}
	return hosts[a], hosts[b]
}

// StartBulk opens a TCP connection from → to on port and streams n
// bytes of the pattern; the receiving side counts and checks arrivals
// into the returned Flow. The caller drives the internet nw belongs to.
// A refused listen or dial is the flow's Err, and nothing is sent. The
// receiving side is never closed. The two ends may live in different
// regions of a sharded build: those advance in lock-step, so the
// receiver's timestamps stay on one timeline with Start.
func StartBulk(nw *core.Network, from, to string, port uint16, n int, opts tcp.Options) *Flow {
	f := &Flow{Profile: Bulk, Src: from, Dst: to, Size: n, Start: nw.Now()}
	bulk(nw, f, port, opts, nil)
	return f
}

// bulk runs f as a one-way transfer of f.Size pattern bytes from f.Src
// to f.Dst on port. end, if not nil, runs when the receiver has counted
// every byte, with the listener and the receiving connection for the
// caller to close, and with nil ones when the transfer fails first.
func bulk(nw *core.Network, f *Flow, port uint16, opts tcp.Options, end func(*tcp.Listener, *tcp.Conn)) {
	k := nw.Net(f.Dst).Kernel()
	f.lastRx = f.Start
	var lst *tcp.Listener
	lst, err := nw.TCP(f.Dst).Listen(port, opts, func(c *tcp.Conn) {
		c.OnData(func(b []byte) {
			now := k.Now()
			f.MaxStall = max(f.MaxStall, now.Sub(f.lastRx))
			f.lastRx = now
			f.check(b)
			f.BytesRx += len(b)
			if f.BytesRx >= f.Size && !f.Done {
				f.Done, f.End = true, now
				if end != nil {
					end(lst, c)
				}
			}
		})
	})
	if err != nil {
		// A port already listening would accept this dial into the other
		// flow's count.
		f.Err = fmt.Errorf("listen on %s port %d: %w", f.Dst, port, err)
	} else if f.Conn, err = nw.TCP(f.Src).Dial(tcp.Endpoint{Addr: nw.Addr(f.Dst), Port: port}, opts); err != nil {
		lst.Close()
		f.Err = err
	}
	if f.Err != nil {
		if end != nil {
			end(nil, nil)
		}
		return
	}
	conn, sent := f.Conn, 0
	write := func() {
		for sent < f.Size {
			n, err := conn.Write(PatternChunk(sent, f.Size-sent))
			if err != nil || n == 0 {
				return
			}
			sent += n
		}
		conn.Close()
	}
	conn.OnWriteSpace(write)
	conn.OnEstablished(func() {
		f.Established = true
		write()
	})
	conn.OnClose(func(err error) {
		if err != nil && f.Err == nil {
			f.Err = err
			if end != nil {
				end(nil, nil)
			}
		}
	})
}

// check counts the bytes of b, delivered at offset BytesRx, that differ
// from the pattern there.
func (f *Flow) check(b []byte) {
	for off := f.BytesRx; len(b) > 0; {
		want := PatternChunk(off, len(b))
		if got := b[:len(want)]; !bytes.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					f.Mismatched++
				}
			}
		}
		b, off = b[len(want):], off+len(want)
	}
}

// StartQueries starts a responder on to at port and a train of count
// requests of n bytes from → to it, one every interval from now, each
// stamped with the type-of-service octet tos; every answer is n bytes
// too. The returned Flow counts the answers. A refused bind is its Err,
// and nothing is sent.
func StartQueries(nw *core.Network, from, to string, port uint16, count int, interval sim.Duration, n int, tos uint8) *Flow {
	f := &Flow{Profile: RR, Src: from, Dst: to, Size: count * n, Start: nw.Now()}
	if err := respond(nw, to, port, n); err != nil {
		f.Err = fmt.Errorf("responder on %s port %d: %w", to, port, err)
		return f
	}
	queries(nw, f, port, count, interval, n, tos)
	return f
}

// respond runs the query responder on node at port: it answers every
// request with n bytes that begin with the request's two-byte tag and
// are zero after it. Since a request is zero after its tag, that is an
// echo of an n-byte request.
func respond(nw *core.Network, node string, port uint16, n int) error {
	resp := make([]byte, n)
	var sock *udp.Socket
	sock, err := nw.UDP(node).Listen(port, func(from udp.Endpoint, data []byte, _ ipv4.Header) {
		if len(data) >= 2 {
			resp[0], resp[1] = data[0], data[1]
		}
		sock.SendTo(from, resp)
	})
	return err
}

// queries runs f as a train of count requests of n (>= 2) bytes to the
// responder at f.Dst's port, the i-th sent at i·interval from now, all
// scheduled up front. Each request carries the tag (flow byte, seq
// byte); an answer counts once, when its tag matches a request sent and
// not yet answered. UDP offers no retransmission, so a lost request or
// answer leaves the flow short of Done. The querier's kernel times every
// round trip.
func queries(nw *core.Network, f *Flow, port uint16, count int, interval sim.Duration, n int, tos uint8) {
	if count > 256 {
		panic(fmt.Sprintf("workload: a train of %d queries: the seq byte tags at most 256", count))
	}
	f.Established = true
	k := nw.Net(f.Src).Kernel()
	req := make([]byte, n)
	req[0] = byte(f.ID)
	sentAt := make([]sim.Time, count) // -1 once answered
	f.RTTs = make([]sim.Duration, 0, count)
	var sock *udp.Socket
	sock, err := nw.UDP(f.Src).Listen(0, func(_ udp.Endpoint, data []byte, _ ipv4.Header) {
		if len(data) < 2 || data[0] != req[0] || int(data[1]) >= f.Sent || sentAt[data[1]] < 0 {
			return
		}
		now := k.Now()
		f.RTTs = append(f.RTTs, now.Sub(sentAt[data[1]]))
		sentAt[data[1]] = -1
		f.BytesRx += len(data)
		if len(f.RTTs) == count {
			f.Done, f.End = true, now
			sock.Close()
		}
	})
	if err != nil {
		f.Err = err
		return
	}
	sock.TOS = tos
	dst := udp.Endpoint{Addr: nw.Addr(f.Dst), Port: port}
	send := func() {
		req[1] = byte(f.Sent)
		sentAt[f.Sent] = k.Now()
		f.Sent++
		sock.SendTo(dst, req)
	}
	for i := range count {
		k.After(sim.Duration(i)*interval, send)
	}
}
