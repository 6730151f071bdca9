package stack

import (
	"encoding/binary"

	"darpanet/internal/icmp"
	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
)

// IcmpError is a network-reported failure delivered to transports: the
// ICMP message plus the header of the datagram that provoked it. This is
// the architecture's only feedback channel from the stateless core.
type IcmpError struct {
	Type, Code uint8
	// From is the node that reported the error (the ICMP datagram's
	// source) — a gateway for time-exceeded, which is what traceroute
	// walks.
	From ipv4.Addr
	// Original is the IP header of the datagram the error is about,
	// reparsed from the ICMP body.
	Original ipv4.Header
	// OrigPayload is the first few bytes of the offending datagram's
	// payload (enough for transport demux: ports live there).
	OrigPayload []byte
}

// OnIcmpError registers fn to receive network-reported errors about
// datagrams this node originated. Transports use it to learn of
// unreachable destinations faster than their own timeouts would.
func (n *Node) OnIcmpError(fn func(IcmpError)) {
	n.icmpErr = append(n.icmpErr, fn)
}

// icmpInput is the protocol handler for IP protocol 1.
func (n *Node) icmpInput(h ipv4.Header, payload []byte) {
	m, err := icmp.Parse(payload)
	if err != nil {
		return
	}
	switch m.Type {
	case icmp.TypeEchoRequest:
		reply := icmp.Message{Type: icmp.TypeEchoReply, ID: m.ID, Seq: m.Seq, Body: m.Body}
		n.Send(ipv4.Header{Dst: h.Src, Proto: ipv4.ProtoICMP, TOS: h.TOS}, reply.Marshal())
	case icmp.TypeEchoReply:
		if cb, ok := n.pings[m.ID]; ok && cb != nil && len(m.Body) >= 8 {
			sent := sim.Time(binary.BigEndian.Uint64(m.Body))
			cb(m.Seq, n.kernel.Now().Sub(sent))
		}
	case icmp.TypeDestUnreachable, icmp.TypeTimeExceeded, icmp.TypeSourceQuench:
		oh, op, err := ipv4.ParseQuoted(m.Body)
		if err != nil {
			return
		}
		ev := IcmpError{Type: m.Type, Code: m.Code, From: h.Src, Original: oh, OrigPayload: op}
		for _, fn := range n.icmpErr {
			fn(ev)
		}
	}
}

// sendICMPError reports a delivery failure back to the datagram's source.
// Errors are never sent about ICMP traffic (loop prevention) or about
// broadcasts.
func (n *Node) sendICMPError(orig ipv4.Header, origPayload []byte, typ, code uint8) {
	if orig.Dst == ipv4.Broadcast || orig.Src.IsZero() {
		return
	}
	// Never generate an error about an ICMP *error* (loop prevention);
	// informational ICMP (echo) may provoke errors — traceroute's
	// time-exceeded walk depends on it.
	if orig.Proto == ipv4.ProtoICMP {
		if len(origPayload) == 0 {
			return
		}
		switch origPayload[0] {
		case icmp.TypeEchoRequest, icmp.TypeEchoReply, icmp.TypeTimestampRequest, icmp.TypeTimestampReply:
		default:
			return
		}
	}
	body := make([]byte, 0, ipv4.HeaderLen+8)
	body = append(body, orig.MarshalStandalone()...)
	q := origPayload
	if len(q) > 8 {
		q = q[:8]
	}
	body = append(body, q...)
	m := icmp.Message{Type: typ, Code: code, Body: body}
	n.stats.IcmpSent++
	n.Send(ipv4.Header{Dst: orig.Src, Proto: ipv4.ProtoICMP}, m.Marshal())
}

// SendPortUnreachable lets a transport report that no one listens on the
// destination port of the given datagram.
func (n *Node) SendPortUnreachable(orig ipv4.Header, origPayload []byte) {
	n.sendICMPError(orig, origPayload, icmp.TypeDestUnreachable, icmp.CodePortUnreachable)
}

// EnableSourceQuench makes the node emit an ICMP source quench to the
// originator of any datagram dropped at one of its output queues — the
// 1980s congestion signal the assigned-numbers era relied on before Van
// Jacobson's end-to-end control. It is off by default (as history proved
// wise); experiment benchmarks measure whether it helps.
func (n *Node) EnableSourceQuench() {
	for _, ifc := range n.ifaces {
		ifc.NIC.OnTxDrop(func(payload []byte) {
			h, body, err := ipv4.Parse(payload)
			if err != nil {
				return
			}
			n.sendICMPError(h, body, icmp.TypeSourceQuench, 0)
		})
	}
}

// watchEcho routes echo replies to fn under a fresh identifier, which it
// returns. The map is made on first use: most nodes never ping.
func (n *Node) watchEcho(fn func(seq uint16, rtt sim.Duration)) uint16 {
	if n.pings == nil {
		n.pings = make(map[uint16]func(uint16, sim.Duration))
	}
	n.pingID++
	n.pings[n.pingID] = fn
	return n.pingID
}

// Ping sends count echo requests to dst at the given interval. Each reply
// invokes reply(seq, rtt); lost probes simply never call back. The
// returned stop function cancels outstanding probes.
func (n *Node) Ping(dst ipv4.Addr, count int, interval sim.Duration, reply func(seq uint16, rtt sim.Duration)) (stop func()) {
	id := n.watchEcho(reply)
	var timers []sim.Timer
	for i := 0; i < count; i++ {
		seq := uint16(i)
		t := n.kernel.After(sim.Duration(i)*interval, func() {
			body := make([]byte, 8)
			binary.BigEndian.PutUint64(body, uint64(n.kernel.Now()))
			m := icmp.Message{Type: icmp.TypeEchoRequest, ID: id, Seq: seq, Body: body}
			n.Send(ipv4.Header{Dst: dst, Proto: ipv4.ProtoICMP}, m.Marshal())
		})
		timers = append(timers, t)
	}
	return func() {
		for _, t := range timers {
			t.Stop()
		}
		delete(n.pings, id)
	}
}
