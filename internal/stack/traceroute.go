package stack

import (
	"encoding/binary"

	"darpanet/internal/icmp"
	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
)

// Hop is one step of a traceroute: the gateway that answered (zero if the
// probe timed out) and the probe's round-trip time.
type Hop struct {
	Addr    ipv4.Addr
	RTT     sim.Duration
	Reached bool // this hop is the destination itself
}

// Traceroute walks the path to dst with TTL-limited echo probes, the
// diagnostic the architecture gets almost for free from the TTL rule and
// the ICMP error channel. done receives the hop list; the walk stops at
// the destination, at maxHops, or after a silent hop times out twice.
func (n *Node) Traceroute(dst ipv4.Addr, maxHops int, probeTimeout sim.Duration, done func([]Hop)) {
	if maxHops <= 0 {
		maxHops = 30
	}
	if probeTimeout <= 0 {
		probeTimeout = 2 * 1e9
	}
	tr := &trWalk{n: n, dst: dst, maxHops: maxHops, timeout: probeTimeout, done: done}
	tr.echoID = n.watchEcho(func(seq uint16, rtt sim.Duration) { tr.reached(rtt) })
	n.OnIcmpError(tr.icmpError)
	tr.probe(1)
}

type trWalk struct {
	n        *Node
	dst      ipv4.Addr
	maxHops  int
	timeout  sim.Duration
	done     func([]Hop)
	hops     []Hop
	echoID   uint16
	probeIP  uint16 // IP ID of the in-flight probe
	ttl      int
	sentAt   sim.Time
	timer    sim.Timer
	finished bool
	silent   int
}

func (tr *trWalk) probe(ttl int) {
	tr.ttl = ttl
	tr.probeIP = tr.n.NextID()
	tr.sentAt = tr.n.kernel.Now()
	body := make([]byte, 8)
	binary.BigEndian.PutUint64(body, uint64(tr.sentAt))
	m := icmp.Message{Type: icmp.TypeEchoRequest, ID: tr.echoID, Seq: uint16(ttl), Body: body}
	tr.n.Send(ipv4.Header{Dst: tr.dst, Proto: ipv4.ProtoICMP, TTL: uint8(ttl), ID: tr.probeIP}, m.Marshal())
	tr.timer = tr.n.kernel.After(tr.timeout, tr.probeTimedOut)
}

func (tr *trWalk) probeTimedOut() {
	if tr.finished {
		return
	}
	tr.hops = append(tr.hops, Hop{}) // silent hop
	tr.silent++
	tr.next()
}

// icmpError handles the time-exceeded answers that map the path.
func (tr *trWalk) icmpError(e IcmpError) {
	if tr.finished || e.Type != icmp.TypeTimeExceeded {
		return
	}
	if e.Original.ID != tr.probeIP || e.Original.Dst != tr.dst {
		return
	}
	tr.timer.Stop()
	tr.silent = 0
	tr.hops = append(tr.hops, Hop{Addr: e.From, RTT: tr.n.kernel.Now().Sub(tr.sentAt)})
	tr.next()
}

// reached handles the destination's echo reply.
func (tr *trWalk) reached(rtt sim.Duration) {
	if tr.finished {
		return
	}
	tr.timer.Stop()
	tr.hops = append(tr.hops, Hop{Addr: tr.dst, RTT: rtt, Reached: true})
	tr.finish()
}

func (tr *trWalk) next() {
	if tr.ttl >= tr.maxHops || tr.silent >= 2 {
		tr.finish()
		return
	}
	tr.probe(tr.ttl + 1)
}

func (tr *trWalk) finish() {
	if tr.finished {
		return
	}
	tr.finished = true
	delete(tr.n.pings, tr.echoID)
	if tr.done != nil {
		tr.done(tr.hops)
	}
}
