package drive

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"time"

	"darpanet/internal/exp"
	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/topo"
	"darpanet/internal/udp"
)

// ShardRegions is E16's fixed region count. Results depend on (spec,
// seed, regions) only; the worker count buys wall-clock and nothing
// else.
const ShardRegions = 8

// udpFlow is one request/response conversation. Every field is written
// only by the client's region kernel (the sender timer and the reply
// handler both run there), so region goroutines share no counter — the
// defect ROADMAP item 1 found in sim's own fixture is not rebuilt here.
// Totals are read between RunFor calls, when no region is running.
type udpFlow struct {
	k        *sim.Kernel
	sock     *udp.Socket
	dst      udp.Endpoint
	body     []byte
	interval sim.Duration
	// answered[n] is whether request n has been replied to; its length
	// is the number of requests sent.
	answered []bool
	// Requests [settled, mark) were sent during the previous Settle
	// interval and are judged at the next Settle.
	settled, mark int
	dropNext      bool // self-test hook: ignore the next reply
	tick          func()
}

func (f *udpFlow) send() {
	binary.BigEndian.PutUint64(f.body, uint64(len(f.answered)))
	f.answered = append(f.answered, false)
	f.sock.SendTo(f.dst, f.body)
	f.k.After(f.interval, f.tick)
}

func (f *udpFlow) reply(data []byte) {
	if f.dropNext {
		f.dropNext = false
		return
	}
	if len(data) < 8 {
		return
	}
	if n := binary.BigEndian.Uint64(data); n < uint64(len(f.answered)) {
		f.answered[n] = true
	}
}

// Sharded is the E16 reference internet — 2000 gateways in 8 regions
// under conservative synchronization — carrying continuous UDP
// request/response flows between hosts drawn over the whole internet.
type Sharded struct {
	s     *topo.Sharded
	flows []*udpFlow
}

// E16Spec is the reference internet in topo.ParseSpec form: 250 transit
// gateways with 7 stub gateways each, one host per stub LAN.
var E16Spec = exp.E16Spec().String()

// NewSharded generates the internet spec describes, partitions it into
// regions, wires it and installs the global static routes
// (topo.GenerateSharded does all of it).
func NewSharded(spec string, seed int64, regions, workers int) (*Sharded, error) {
	ts, err := topo.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return &Sharded{s: topo.GenerateSharded(ts, seed, regions, workers)}, nil
}

// maxPathHops bounds the gateways a flow's path may cross. On the
// 250-transit ring a few host pairs lie more than ipv4.DefaultTTL (64)
// hops apart; their datagrams would expire in transit, which is the
// network working as designed but not an operation that can succeed.
const maxPathHops = 60

// ArmFlows starts n request/response flows of payload bytes, each
// sending perSec requests a second from a seeded phase, between host
// pairs drawn by seed (redrawn while the routed path is longer than
// maxPathHops). One echo responder per destination host.
func (sh *Sharded) ArmFlows(seed int64, n, payload, perSec int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
	hosts := sh.s.Manifest.HostNames()
	interval := time.Second / time.Duration(perSec)
	const echoPort = 7000
	echoing := make(map[string]bool)
	for i := 0; i < n; i++ {
		var from, to string
		for {
			a := rng.Intn(len(hosts))
			b := rng.Intn(len(hosts) - 1)
			if b >= a {
				b++
			}
			from, to = hosts[a], hosts[b]
			if hops, ok := sh.s.PathHops(from, to); ok && hops <= maxPathHops {
				break
			}
		}
		if !echoing[to] {
			echoing[to] = true
			var echo *udp.Socket
			echo, err := sh.s.Net(to).UDP(to).Listen(echoPort, func(from udp.Endpoint, data []byte, _ ipv4.Header) {
				echo.SendTo(from, data)
			})
			if err != nil {
				panic(err)
			}
		}
		f := &udpFlow{
			k:        sh.s.Net(from).Kernel(),
			dst:      udp.Endpoint{Addr: sh.s.Addr(to), Port: echoPort},
			body:     make([]byte, payload),
			interval: interval,
		}
		f.tick = f.send
		sock, err := sh.s.Net(from).UDP(from).Listen(0, func(_ udp.Endpoint, data []byte, _ ipv4.Header) {
			f.reply(data)
		})
		if err != nil {
			panic(err)
		}
		f.sock = sock
		f.k.After(time.Duration(rng.Int63n(int64(interval))), f.tick)
		sh.flows = append(sh.flows, f)
	}
}

// RunFor advances every region in lock-step epochs.
func (sh *Sharded) RunFor(d time.Duration) { sh.s.RunFor(d) }

// Requests is the cumulative number of requests sent over all flows.
func (sh *Sharded) Requests() (n uint64) {
	for _, f := range sh.flows {
		n += uint64(len(f.answered))
	}
	return n
}

// Settle judges the requests sent between the previous two Settle
// calls — by now at least one whole interval old — and returns how many
// there were and how many have been answered. Call it between RunFor
// calls, at a fixed simulated period far above the round-trip time.
func (sh *Sharded) Settle() (older, answered uint64) {
	for _, f := range sh.flows {
		for _, ok := range f.answered[f.settled:f.mark] {
			older++
			if ok {
				answered++
			}
		}
		f.settled, f.mark = f.mark, len(f.answered)
	}
	return older, answered
}

// DropReplies makes the first n flows each ignore one reply: the
// self-test's injected fault.
func (sh *Sharded) DropReplies(n int) {
	for _, f := range sh.flows[:n] {
		f.dropNext = true
	}
}

// PendingEvents sums the region kernels' queue depths.
func (sh *Sharded) PendingEvents() (n int) {
	for _, k := range sh.s.Group.Kernels() {
		n += k.PendingEvents()
	}
	return n
}

// ShardTimes reports the group's cumulative per-kernel busy time summed
// over kernels, its critical path (per-epoch maximum, accumulated) and
// the epoch length.
func (sh *Sharded) ShardTimes() (busy, critical, lookahead time.Duration) {
	return sh.s.Group.TotalBusy(), sh.s.Group.CriticalPath(), sh.s.Lookahead
}

// Read snapshots every region kernel's registry, in region order.
func (sh *Sharded) Read() Reading { return read(sh.s.Group.Kernels()...) }

// RouteTableLens returns the sorted route-table sizes of every node.
func (sh *Sharded) RouteTableLens() []int {
	var lens []int
	for _, nw := range sh.s.Regions {
		for _, name := range nw.Nodes() {
			lens = append(lens, nw.Node(name).Table.Len())
		}
	}
	sort.Ints(lens)
	return lens
}
