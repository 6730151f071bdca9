package drive

import (
	"bytes"
	"math/rand"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/phys"
	"darpanet/internal/tcp"
)

// Transfer is one bulk TCP transfer: the sender streams a byte pattern,
// the receiver compares every chunk against the pattern it expects —
// the end-to-end check, since only the endpoint can vouch for the bytes.
type Transfer struct {
	Target     int
	Received   int
	Mismatched int // received bytes that differ from the expected pattern
	Done       bool
	Err        error
}

// Intact reports a complete transfer with the exact byte count, every
// byte as sent, and no transport error.
func (t *Transfer) Intact() bool {
	return t.Done && t.Err == nil && t.Received == t.Target && t.Mismatched == 0
}

// startBulk opens a TCP connection from → to and streams data; the
// server side checks arrivals against want. The two handles are the
// same network on a serial build and the endpoints' region networks on
// a sharded one — written against tcp's public calls so it does not
// depend on exp's unexported Pair helpers.
func startBulk(cnw, snw *core.Network, from, to string, port uint16, data, want []byte, opts tcp.Options) *Transfer {
	tr := &Transfer{Target: len(data)}
	_, err := snw.TCP(to).Listen(port, opts, func(c *tcp.Conn) {
		c.OnData(func(b []byte) {
			end := tr.Received + len(b)
			if end > len(want) {
				tr.Mismatched += end - len(want)
				end = len(want)
			}
			if exp := want[tr.Received:end]; !bytes.Equal(exp, b[:len(exp)]) {
				for i := range exp {
					if exp[i] != b[i] {
						tr.Mismatched++
					}
				}
			}
			tr.Received += len(b)
			if tr.Received >= tr.Target {
				tr.Done = true
			}
		})
	})
	if err != nil {
		tr.Err = err
		return tr
	}
	conn, err := cnw.TCP(from).Dial(tcp.Endpoint{Addr: snw.Addr(to), Port: port}, opts)
	if err != nil {
		tr.Err = err
		return tr
	}
	conn.OnClose(func(err error) {
		if err != nil && tr.Err == nil {
			tr.Err = err
		}
	})
	remaining := data
	write := func() {
		for len(remaining) > 0 {
			n, err := conn.Write(remaining)
			if err != nil || n == 0 {
				return
			}
			remaining = remaining[n:]
		}
		conn.Close()
	}
	conn.OnWriteSpace(write)
	conn.OnEstablished(write)
	return tr
}

// Gauntlet is E3's path of four unlike networks — LAN MTU 1500 → T1
// serial MTU 1006 → lossy jittered radio MTU 576 → MTU 256 net — with
// the slow links sped up so a run is bound by the host CPU, not by idle
// simulated time. Several TCP transfers cross it at once.
type Gauntlet struct {
	nw        *core.Network
	Transfers []*Transfer
}

// NewGauntlet builds the four nets and three gateways and installs
// static routes.
func NewGauntlet(seed int64) *Gauntlet {
	nw := core.New(seed)
	nw.AddNet("lan", "10.1.0.0/24", core.LAN, phys.Config{BitsPerSec: 100_000_000, Delay: 100 * time.Microsecond, MTU: 1500, QueueLimit: 256})
	nw.AddNet("serial", "10.2.0.0/24", core.P2P, phys.Config{BitsPerSec: 1_544_000 * 8, Delay: 2 * time.Millisecond, MTU: 1006, QueueLimit: 256})
	nw.AddNet("radio", "10.3.0.0/24", core.Radio, phys.Config{BitsPerSec: 20_000_000, Delay: time.Millisecond, Jitter: time.Millisecond, Loss: 0.01, MTU: 576, QueueLimit: 256})
	nw.AddNet("tiny", "10.4.0.0/24", core.P2P, phys.Config{BitsPerSec: 50_000_000, Delay: 500 * time.Microsecond, MTU: 256, QueueLimit: 256})
	nw.AddHost("src", "lan")
	nw.AddGateway("g1", "lan", "serial")
	nw.AddGateway("g2", "serial", "radio")
	nw.AddGateway("g3", "radio", "tiny")
	nw.AddHost("dst", "tiny")
	nw.InstallStaticRoutes()
	return &Gauntlet{nw: nw}
}

// Pattern returns n seeded bytes: the payload the transfers carry.
func Pattern(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// Start opens n concurrent transfers of data, src → dst, offering MSS
// 1400 so every gateway on the path fragments. The receiver checks
// against want, which is data itself except in the self-test that
// injects a wrong byte.
func (g *Gauntlet) Start(n int, data, want []byte) {
	for i := 0; i < n; i++ {
		g.Transfers = append(g.Transfers,
			startBulk(g.nw, g.nw, "src", "dst", uint16(7000+i), data, want, tcp.Options{MSS: 1400}))
	}
}

// RunFor advances the simulation.
func (g *Gauntlet) RunFor(d time.Duration) { g.nw.RunFor(d) }

// Now is the simulated time elapsed.
func (g *Gauntlet) Now() time.Duration { return time.Duration(g.nw.Now()) }

// AllDone reports whether every transfer has received its byte count.
func (g *Gauntlet) AllDone() bool {
	for _, t := range g.Transfers {
		if !t.Done && t.Err == nil {
			return false
		}
	}
	return true
}

// PendingEvents is the kernel's queue depth right now.
func (g *Gauntlet) PendingEvents() int { return g.nw.Kernel().PendingEvents() }

// Read snapshots the registry.
func (g *Gauntlet) Read() Reading { return read(g.nw.Kernel()) }
