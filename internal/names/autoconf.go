package names

import (
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
	"darpanet/internal/udp"
)

var defaultPrefix = ipv4.MustParsePrefix("0.0.0.0/0")

// Agent is the gateway-resident half of host autoconfiguration: it
// answers Discover broadcasts on AgentPort with an Offer naming the
// directory replicas (nearest this gateway first). The answering
// interface's address doubles as the host's default gateway — the
// Offer's source address is all the host needs to route.
type Agent struct {
	node     *stack.Node
	sock     *udp.Socket
	replicas []Record
}

// InstallAgent starts an autoconfiguration responder on the node behind
// tr. replicas lists the directory servers as Records (Name = server
// node, Addr = its service address), pre-sorted nearest-to-this-gateway
// first; Serial carries the rank for the trace's benefit.
func InstallAgent(tr *udp.Transport, replicas []Record) (*Agent, error) {
	a := &Agent{node: tr.Node(), replicas: append([]Record(nil), replicas...)}
	sock, err := tr.Listen(AgentPort, a.input)
	if err != nil {
		return nil, err
	}
	a.sock = sock
	return a, nil
}

func (a *Agent) input(from udp.Endpoint, data []byte, _ ipv4.Header) {
	m, err := Parse(data)
	if err != nil || m.Op != OpDiscover {
		return
	}
	// Reply out the interface that faces the prober: a broadcast never
	// consults the routing table, and neither can the answer — the
	// prober may not be routable yet.
	var ifc *stack.Interface
	for _, i := range a.node.Interfaces() {
		if i.Prefix.Contains(from.Addr) {
			ifc = i
			break
		}
	}
	if ifc == nil {
		return
	}
	resp := Message{Op: OpOffer, ID: m.ID, Records: a.replicas}
	b, err := resp.Marshal()
	if err != nil {
		panic(err) // agent-built messages are well-formed by construction
	}
	a.sock.SendToVia(ifc, from, b)
}

// HostConfig parameterizes one host's autoconfiguration.
type HostConfig struct {
	// Name is the name to register; Serial its registration serial —
	// re-running after a renumber with a higher serial supersedes the
	// old binding everywhere.
	Name   string
	Serial uint32
	// Interval is the Discover retransmit spacing (default 500ms);
	// Attempts how many probes go out before giving up (default 5).
	Interval sim.Duration
	Attempts int
}

// Autoconfigure performs low-effort host attachment on ifc (the paper's
// goal 6): broadcast a Discover, take the first Offer, install a
// default route via the offering agent, point the resolver at the
// offered replica list, and register cfg.Name→ifc.Addr. done runs
// exactly once — ok means the registration was acknowledged by a
// directory replica. No manual route or table edits anywhere: the host
// only needs to know its own name.
func Autoconfigure(tr *udp.Transport, ifc *stack.Interface, r *Resolver, cfg HostConfig, done func(ok bool)) {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 5
	}
	node := tr.Node()
	probe := Message{Op: OpDiscover, ID: uint16(ifc.Index) + 1,
		Records: []Record{{Name: cfg.Name, Addr: ifc.Addr, Serial: cfg.Serial}}}
	b, err := probe.Marshal()
	if err != nil {
		done(false)
		return
	}
	finished := false
	var sock *udp.Socket
	var retry sim.Timer
	sock, err = tr.Listen(0, func(from udp.Endpoint, data []byte, _ ipv4.Header) {
		if finished {
			return
		}
		m, err := Parse(data)
		if err != nil || m.Op != OpOffer || m.ID != probe.ID || len(m.Records) == 0 {
			return
		}
		finished = true
		retry.Stop()
		sock.Close()
		// The offering agent is this interface's router.
		node.Table.Add(stack.Route{Prefix: defaultPrefix, Via: from.Addr, IfIndex: ifc.Index, Source: stack.SourceStatic})
		eps := make([]udp.Endpoint, len(m.Records))
		for i, rec := range m.Records {
			eps[i] = udp.Endpoint{Addr: rec.Addr, Port: Port}
		}
		r.SetReplicas(eps)
		r.Register(cfg.Name, ifc.Addr, cfg.Serial, done)
	})
	if err != nil {
		done(false)
		return
	}
	dst := udp.Endpoint{Addr: ipv4.Broadcast, Port: AgentPort}
	attempts := 0
	var probeOnce func()
	probeOnce = func() {
		if finished {
			return
		}
		if attempts >= cfg.Attempts {
			finished = true
			sock.Close()
			done(false)
			return
		}
		attempts++
		sock.SendToVia(ifc, dst, b)
		retry = node.Kernel().After(cfg.Interval, probeOnce)
	}
	probeOnce()
}
