package names

import (
	"fmt"
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/udp"
)

// ServerConfig tunes one directory server.
type ServerConfig struct {
	// TTL is the positive-answer cache lifetime handed to resolvers
	// (default 3s); NegTTL the negative-answer lifetime (default 1s).
	TTL    sim.Duration
	NegTTL sim.Duration
	// Sync, when positive, runs anti-entropy: the full zone is pushed
	// to every peer replica each interval, so a replica that was down
	// when an incremental update went out converges after restore.
	Sync sim.Duration
}

// ServerStats counts one server's protocol activity.
type ServerStats struct {
	Queries   uint64 // queries received
	Hits      uint64 // answered positively
	Negatives uint64 // answered with authoritative non-existence
	Registers uint64 // registration requests received
	Updates   uint64 // replication pushes received
	Accepted  uint64 // zone mutations applied (register or update)
	Stale     uint64 // register/update records ignored as not newer
	BadMsgs   uint64 // datagrams that failed to parse
}

type zoneEntry struct {
	addr   ipv4.Addr
	serial uint32
}

// Server is one directory replica: a serial-numbered zone of
// name→address records served over UDP on the well-known Port. It runs
// on an ordinary stack node (in the experiments, a gateway), so it
// fate-shares with that node — crashing the node silences the replica,
// restoring it brings the zone back as it was.
type Server struct {
	name string
	k    *sim.Kernel
	sock *udp.Socket
	cfg  ServerConfig

	zone   map[string]zoneEntry
	order  []string // registration order, for deterministic iteration
	serial uint32   // zone serial: bumped on every accepted change

	peers    []udp.Endpoint
	onChange func()
	stats    ServerStats

	// Log, when set, receives one line per protocol event — the golden
	// query traces tap it.
	Log func(line string)
}

// NewServer starts a directory replica on the node behind tr, listening
// on Port. Replication peers are wired afterwards with SetPeers.
func NewServer(tr *udp.Transport, name string, cfg ServerConfig) (*Server, error) {
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * time.Second
	}
	if cfg.NegTTL <= 0 {
		cfg.NegTTL = time.Second
	}
	s := &Server{name: name, k: tr.Node().Kernel(), cfg: cfg, zone: make(map[string]zoneEntry)}
	sock, err := tr.Listen(Port, s.input)
	if err != nil {
		return nil, err
	}
	s.sock = sock
	if cfg.Sync > 0 {
		var tick func()
		tick = func() {
			s.pushZone()
			s.k.After(cfg.Sync, tick)
		}
		s.k.After(cfg.Sync, tick)
	}
	return s, nil
}

// SetPeers names the other replicas this server pushes updates to.
func (s *Server) SetPeers(peers []udp.Endpoint) {
	s.peers = append([]udp.Endpoint(nil), peers...)
}

// OnChange registers fn to run after every accepted zone mutation.
func (s *Server) OnChange(fn func()) { s.onChange = fn }

// Stats returns the server's protocol counters.
func (s *Server) Stats() ServerStats { return s.stats }

// Len returns the number of names in the zone.
func (s *Server) Len() int { return len(s.zone) }

// Lookup returns the zone's binding for name.
func (s *Server) Lookup(name string) (addr ipv4.Addr, serial uint32, ok bool) {
	e, ok := s.zone[name]
	return e.addr, e.serial, ok
}

func ttlMS(d sim.Duration) uint32 { return uint32(d / time.Millisecond) }

func (s *Server) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(fmt.Sprintf("%s %s ", s.k.Now(), s.name) + fmt.Sprintf(format, args...))
	}
}

func (s *Server) send(dst udp.Endpoint, m *Message) {
	b, err := m.Marshal()
	if err != nil {
		panic(err) // server-built messages are well-formed by construction
	}
	s.sock.SendTo(dst, b) // best effort: a dead path is the client's problem
}

// apply merges one record into the zone; higher registration serials
// win, ties and older serials are ignored.
func (s *Server) apply(r Record) bool {
	e, ok := s.zone[r.Name]
	if ok && e.serial >= r.Serial {
		s.stats.Stale++
		return false
	}
	if !ok {
		s.order = append(s.order, r.Name)
	}
	s.zone[r.Name] = zoneEntry{addr: r.Addr, serial: r.Serial}
	s.serial++
	s.stats.Accepted++
	if s.onChange != nil {
		s.onChange()
	}
	return true
}

// pushZone sends the whole zone to every peer (anti-entropy), chunked
// to the wire limit.
func (s *Server) pushZone() {
	if len(s.peers) == 0 || len(s.order) == 0 {
		return
	}
	for start := 0; start < len(s.order); start += MaxRecords {
		end := start + MaxRecords
		if end > len(s.order) {
			end = len(s.order)
		}
		m := &Message{Op: OpUpdate, Serial: s.serial}
		for _, name := range s.order[start:end] {
			e := s.zone[name]
			m.Records = append(m.Records, Record{Name: name, Addr: e.addr, Serial: e.serial})
		}
		for _, p := range s.peers {
			s.send(p, m)
		}
	}
}

func (s *Server) input(from udp.Endpoint, data []byte, _ ipv4.Header) {
	m, err := Parse(data)
	if err != nil {
		s.stats.BadMsgs++
		return
	}
	switch m.Op {
	case OpQuery:
		if len(m.Records) != 1 {
			s.stats.BadMsgs++
			return
		}
		s.stats.Queries++
		q := m.Records[0].Name
		resp := &Message{Op: OpAnswer, ID: m.ID, Serial: s.serial}
		if e, ok := s.zone[q]; ok {
			s.stats.Hits++
			resp.Records = []Record{{Name: q, Addr: e.addr, Serial: e.serial, TTLms: ttlMS(s.cfg.TTL)}}
			s.logf("query %s from %s -> %s serial=%d", q, from, e.addr, e.serial)
		} else {
			s.stats.Negatives++
			resp.Negative = true
			resp.Records = []Record{{Name: q, TTLms: ttlMS(s.cfg.NegTTL)}}
			s.logf("query %s from %s -> negative", q, from)
		}
		s.send(from, resp)
	case OpRegister:
		if len(m.Records) != 1 {
			s.stats.BadMsgs++
			return
		}
		s.stats.Registers++
		r := m.Records[0]
		accepted := s.apply(r)
		s.logf("register %s=%s serial=%d from %s accepted=%t", r.Name, r.Addr, r.Serial, from, accepted)
		s.send(from, &Message{Op: OpAck, ID: m.ID, Serial: s.serial,
			Records: []Record{{Name: r.Name, Addr: r.Addr, Serial: r.Serial}}})
		if accepted {
			// Incremental replication: push the new binding to peers now;
			// anti-entropy (cfg.Sync) repairs any peer that misses it.
			upd := &Message{Op: OpUpdate, Serial: s.serial, Records: []Record{r}}
			for _, p := range s.peers {
				s.send(p, upd)
			}
		}
	case OpUpdate:
		s.stats.Updates++
		for _, r := range m.Records {
			if s.apply(r) {
				s.logf("update %s=%s serial=%d from %s", r.Name, r.Addr, r.Serial, from)
			}
		}
	default:
		// Discover/Offer belong to the agent port; a query-port peer
		// sending them is confused.
		s.stats.BadMsgs++
	}
}
