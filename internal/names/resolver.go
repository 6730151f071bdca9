package names

import (
	"time"

	"darpanet/internal/ipv4"
	"darpanet/internal/sim"
	"darpanet/internal/udp"
)

// ResolverConfig tunes the client query state machine.
type ResolverConfig struct {
	// Timeout is the first per-try timeout (default 250ms); each
	// retransmission to the same replica doubles it.
	Timeout sim.Duration
	// Retries is how many tries each replica gets before the resolver
	// fails over to the next one (default 2).
	Retries int
}

// ResolverStats counts one resolver's activity. Lookups = Hits +
// NegHits + network queries started; a started query ends as an
// Answer, a NegAnswer or a Fail.
type ResolverStats struct {
	Lookups    uint64 // Resolve calls
	Hits       uint64 // served from the positive cache
	NegHits    uint64 // served from the negative cache
	Queries    uint64 // query transactions sent to the network
	Retries    uint64 // retransmissions to the same replica
	Failovers  uint64 // switches to the next replica
	Answers    uint64 // positive answers received
	NegAnswers uint64 // negative answers received
	Fails      uint64 // transactions that exhausted every replica
	Expired    uint64 // cache entries evicted by TTL timer
	Registers  uint64 // registration transactions started
}

type cacheEntry struct {
	addr    ipv4.Addr
	serial  uint32
	neg     bool
	expires sim.Time
	timer   sim.Timer
}

type pendingQuery struct {
	id      uint16
	op      byte // OpQuery or OpRegister
	rec     Record
	cb      func(ipv4.Addr, bool)
	started sim.Time
	replica int
	tries   int
	timeout sim.Duration
	timer   sim.Timer
}

// Resolver is a host's stub resolver: positive and negative caches with
// TTL expiry on kernel timers, and a query engine that retransmits with
// exponential backoff and fails over across the replica list (nearest
// first, as ordered by the autoconfiguration Offer).
type Resolver struct {
	k    *sim.Kernel
	sock *udp.Socket
	cfg  ResolverConfig

	replicas []udp.Endpoint
	cache    map[string]*cacheEntry
	pending  map[uint16]*pendingQuery
	nextID   uint16
	stats    ResolverStats

	// latencies records the duration of every completed network
	// transaction (answers and negative answers; cache hits excluded).
	latencies []sim.Duration
}

// NewResolver opens a resolver on the node behind tr, bound to an
// ephemeral port.
func NewResolver(tr *udp.Transport, cfg ResolverConfig) (*Resolver, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	r := &Resolver{
		k: tr.Node().Kernel(), cfg: cfg,
		cache:   make(map[string]*cacheEntry),
		pending: make(map[uint16]*pendingQuery),
	}
	sock, err := tr.Listen(0, r.input)
	if err != nil {
		return nil, err
	}
	r.sock = sock
	return r, nil
}

// SetReplicas points the resolver at the directory replicas, nearest
// first. Transactions already in flight keep their old list position
// but new ones use the new order.
func (r *Resolver) SetReplicas(eps []udp.Endpoint) {
	r.replicas = append([]udp.Endpoint(nil), eps...)
}

// Stats returns the resolver's counters.
func (r *Resolver) Stats() ResolverStats { return r.stats }

// Latencies returns the completed network-transaction durations.
func (r *Resolver) Latencies() []sim.Duration {
	return append([]sim.Duration(nil), r.latencies...)
}

// CacheLen returns the number of live cache entries.
func (r *Resolver) CacheLen() int { return len(r.cache) }

// Resolve answers name→address from cache when fresh, otherwise by
// querying the replicas; cb runs exactly once, asynchronously even on
// a cache hit, with ok=false for negative answers and exhausted
// replica lists.
func (r *Resolver) Resolve(name string, cb func(addr ipv4.Addr, ok bool)) {
	r.stats.Lookups++
	if e, ok := r.cache[name]; ok && r.k.Now() < e.expires {
		if e.neg {
			r.stats.NegHits++
			r.k.Defer(func() { cb(0, false) })
		} else {
			r.stats.Hits++
			addr := e.addr
			r.k.Defer(func() { cb(addr, true) })
		}
		return
	}
	r.stats.Queries++
	r.start(&pendingQuery{op: OpQuery, rec: Record{Name: name}, cb: cb})
}

// Register installs name→addr (at the given registration serial) in the
// directory, through the same retry/failover machinery queries use.
func (r *Resolver) Register(name string, addr ipv4.Addr, serial uint32, cb func(ok bool)) {
	r.stats.Registers++
	r.start(&pendingQuery{
		op:  OpRegister,
		rec: Record{Name: name, Addr: addr, Serial: serial},
		cb:  func(_ ipv4.Addr, ok bool) { cb(ok) },
	})
}

func (r *Resolver) start(q *pendingQuery) {
	if len(r.replicas) == 0 {
		r.stats.Fails++
		r.k.Defer(func() { q.cb(0, false) })
		return
	}
	r.nextID++
	q.id = r.nextID
	q.started = r.k.Now()
	q.timeout = r.cfg.Timeout
	r.pending[q.id] = q
	r.send(q)
}

func (r *Resolver) send(q *pendingQuery) {
	if q.replica >= len(r.replicas) {
		r.fail(q)
		return
	}
	m := Message{Op: q.op, ID: q.id, Records: []Record{q.rec}}
	b, err := m.Marshal()
	if err != nil {
		panic(err) // resolver-built messages are well-formed by construction
	}
	// Send errors (no route yet, interface down) are not terminal: the
	// retry timer runs regardless and the next try may have a path.
	r.sock.SendTo(r.replicas[q.replica], b)
	q.timer = r.k.After(q.timeout, func() { r.expire(q) })
}

// expire is the per-try timeout: retransmit with doubled timeout until
// the replica's tries are spent, then fail over to the next replica,
// then fail the transaction.
func (r *Resolver) expire(q *pendingQuery) {
	if r.pending[q.id] != q {
		return
	}
	q.tries++
	if q.tries < r.cfg.Retries {
		r.stats.Retries++
		q.timeout *= 2
		r.send(q)
		return
	}
	if q.replica+1 < len(r.replicas) {
		r.stats.Failovers++
		q.replica++
		q.tries = 0
		q.timeout = r.cfg.Timeout
		r.send(q)
		return
	}
	r.fail(q)
}

func (r *Resolver) fail(q *pendingQuery) {
	delete(r.pending, q.id)
	r.stats.Fails++
	q.cb(0, false)
}

// put caches an answer for ttlms, arming (or re-arming) its expiry
// timer; a zero TTL is not cached.
func (r *Resolver) put(name string, addr ipv4.Addr, serial uint32, neg bool, ttlms uint32) {
	if old, ok := r.cache[name]; ok {
		old.timer.Stop()
		delete(r.cache, name)
	}
	if ttlms == 0 {
		return
	}
	ttl := sim.Duration(ttlms) * time.Millisecond
	e := &cacheEntry{addr: addr, serial: serial, neg: neg, expires: r.k.Now().Add(ttl)}
	e.timer = r.k.After(ttl, func() {
		if r.cache[name] == e {
			delete(r.cache, name)
			r.stats.Expired++
		}
	})
	r.cache[name] = e
}

func (r *Resolver) input(_ udp.Endpoint, data []byte, _ ipv4.Header) {
	m, err := Parse(data)
	if err != nil {
		return
	}
	q, ok := r.pending[m.ID]
	if !ok || len(m.Records) != 1 || m.Records[0].Name != q.rec.Name {
		return
	}
	switch {
	case m.Op == OpAnswer && q.op == OpQuery:
		rec := m.Records[0]
		q.timer.Stop()
		delete(r.pending, m.ID)
		r.latencies = append(r.latencies, r.k.Now().Sub(q.started))
		if m.Negative {
			r.stats.NegAnswers++
			r.put(rec.Name, 0, 0, true, rec.TTLms)
			q.cb(0, false)
		} else {
			r.stats.Answers++
			r.put(rec.Name, rec.Addr, rec.Serial, false, rec.TTLms)
			q.cb(rec.Addr, true)
		}
	case m.Op == OpAck && q.op == OpRegister:
		q.timer.Stop()
		delete(r.pending, m.ID)
		q.cb(q.rec.Addr, true)
	}
}
