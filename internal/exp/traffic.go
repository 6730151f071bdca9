package exp

import (
	"fmt"

	"darpanet/internal/core"
	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
)

// Transfer tracks one bulk TCP transfer driven by StartBulkTCP.
type Transfer struct {
	Conn     *tcp.Conn
	Server   *tcp.Conn
	Received int
	Target   int
	Done     bool
	DoneAt   sim.Time
	Err      error
	// LastByteAt records when the most recent byte arrived, for stall
	// measurement.
	LastByteAt sim.Time
	// MaxStall is the longest observed gap between byte arrivals.
	MaxStall sim.Duration
	started  sim.Time
}

// StartBulkTCP opens a TCP connection from -> to on port and streams
// nbytes of patterned data; the server side counts arrivals. The caller
// drives the internet nw belongs to and inspects the returned Transfer;
// a refused listen or dial is its Err, and nothing is sent. The two
// ends may live in different regions of a sharded build: those advance
// in lock-step, so server-side timestamps stay on one timeline with the
// client's.
func StartBulkTCP(nw *core.Network, from, to string, port uint16, nbytes int, opts tcp.Options) *Transfer {
	tr := &Transfer{Target: nbytes, started: nw.Now(), LastByteAt: nw.Now()}
	k := nw.Net(to).Kernel()
	_, err := nw.TCP(to).Listen(port, opts, func(c *tcp.Conn) {
		tr.Server = c
		c.OnData(func(b []byte) {
			if gap := k.Now().Sub(tr.LastByteAt); gap > tr.MaxStall {
				tr.MaxStall = gap
			}
			tr.LastByteAt = k.Now()
			tr.Received += len(b)
			if tr.Received >= tr.Target && !tr.Done {
				tr.Done = true
				tr.DoneAt = k.Now()
			}
		})
	})
	if err != nil {
		// A port already listening would accept this dial into the other
		// transfer's count.
		tr.Err = fmt.Errorf("listen on %s port %d: %w", to, port, err)
		return tr
	}
	conn, err := nw.TCP(from).Dial(tcp.Endpoint{Addr: nw.Addr(to), Port: port}, opts)
	if err != nil {
		tr.Err = err
		return tr
	}
	tr.Conn = conn
	conn.OnClose(func(err error) {
		if err != nil && tr.Err == nil {
			tr.Err = err
		}
	})
	sent := 0
	write := func() {
		for sent < nbytes {
			n, err := conn.Write(patternChunk(sent, nbytes-sent))
			if err != nil || n == 0 {
				return
			}
			sent += n
		}
		conn.Close()
	}
	conn.OnWriteSpace(write)
	conn.OnEstablished(write)
	return tr
}

// ElapsedToDone returns the transfer's completion time relative to its
// start (0 if unfinished).
func (tr *Transfer) ElapsedToDone() sim.Duration {
	if !tr.Done {
		return 0
	}
	return tr.DoneAt.Sub(tr.started)
}

// patternBytes produces position-dependent test data.
func patternBytes(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>9)
	}
	return p
}

// The pattern's byte at i depends only on i mod 2^17, so a bulk sender
// streams from one read-only table shared by every transfer in the
// process instead of materialising its whole transfer. The table holds
// two periods so that a chunk of up to one period is contiguous wherever
// it starts: a Write is then offered exactly what a fully materialised
// pattern would have offered it, for any send buffer up to 128 KiB.
const patternPeriod = 1 << 17

var patternTable = patternBytes(2 * patternPeriod)

// patternChunk returns the pattern from offset off on: up to n bytes, and
// no more than one period.
func patternChunk(off, n int) []byte {
	at := off % patternPeriod
	return patternTable[at : at+min(n, patternPeriod)]
}

// startUDPEcho runs a UDP request/response responder on node name at
// port.
func startUDPEcho(nw *core.Network, name string, port uint16) {
	var sock *udp.Socket
	sock, err := nw.UDP(name).Listen(port, func(from udp.Endpoint, data []byte, _ ipv4.Header) {
		sock.SendTo(from, data)
	})
	if err != nil {
		panic(err)
	}
}

// queryDriver is what runUDPQueries has seen so far: transactions sent,
// transactions answered, and each answer's round-trip time.
type queryDriver struct {
	sent, got int
	rtts      []sim.Duration
}

// runUDPQueries issues count echo transactions from -> to at the given
// interval and returns per-transaction RTTs (missing entries = lost),
// timed on the querier's kernel.
func runUDPQueries(nw *core.Network, from, to string, port uint16, count int, interval sim.Duration, payload int, tos uint8) *queryDriver {
	startUDPEcho(nw, to, port)
	k := nw.Net(from).Kernel()
	qd := &queryDriver{}
	sends := make(map[uint16]sim.Time)
	sock, err := nw.UDP(from).Listen(0, func(_ udp.Endpoint, data []byte, _ ipv4.Header) {
		if len(data) < 2 {
			return
		}
		id := uint16(data[0])<<8 | uint16(data[1])
		if at, ok := sends[id]; ok {
			delete(sends, id)
			qd.got++
			qd.rtts = append(qd.rtts, k.Now().Sub(at))
		}
	})
	if err != nil {
		panic(err)
	}
	sock.TOS = tos
	dst := udp.Endpoint{Addr: nw.Addr(to), Port: port}
	for i := 0; i < count; i++ {
		i := i
		k.After(sim.Duration(i)*interval, func() {
			body := make([]byte, payload)
			body[0], body[1] = byte(i>>8), byte(i)
			sends[uint16(i)] = k.Now()
			qd.sent++
			sock.SendTo(dst, body)
		})
	}
	return qd
}
