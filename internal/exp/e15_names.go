package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/fault"
	"darpanet/internal/ipv4"
	"darpanet/internal/names"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/udp"
	"darpanet/internal/workload"
)

// e15TraceHook, when set, receives every directory server's protocol
// log lines — the golden query traces tap it (at one worker, where the
// cross-kernel interleave of appends is fixed).
var e15TraceHook func(line string)

// E15 timeline. Autoconfiguration starts at t=0 (staggered per host);
// client attempts run from first-attempt to last-attempt; one directory
// replica crashes and is restored mid-run; two service hosts renumber
// while clients are connecting to them; a brand-new host attaches with
// nothing but its own name and must become resolvable.
const (
	e15AutoconfSpacing = 20 * time.Millisecond
	e15FirstAttempt    = 2 * time.Second
	e15LastAttempt     = 20 * time.Second
	e15ProbeStart      = 3 * time.Second
	e15ProbeInterval   = 500 * time.Millisecond
	e15AttachAt        = 4 * time.Second
	e15CrashAt         = 6 * time.Second
	e15RenumberAt      = 8 * time.Second
	e15RestoreAt       = 14 * time.Second
	e15Dur             = 24 * time.Second

	e15AttemptMean     = 600 * time.Millisecond
	e15AttemptDeadline = 3 * time.Second
	e15ReqBytes        = 1024
	e15SvcPort         = 8055

	e15TTL    = 3 * time.Second
	e15NegTTL = time.Second
	e15Sync   = 2 * time.Second
)

// e15AttachName is the host that joins mid-run via core.AttachNodeToNet
// with no manual route or table edits.
const e15AttachName = "h-new"

func e15TCPOpts() tcp.Options { return tcp.Options{SendBufferSize: 65535} }

// e15Attempt is one scheduled resolve-then-connect: client index,
// service index, start time. The schedule is drawn once per seed and
// replayed identically in both modes.
type e15Attempt struct {
	client, target int
	at             sim.Duration
}

// e15Renumber moves a service host to another stub LAN in its own
// region mid-run: old interface down, core.AttachNodeToNet, then
// autoconfiguration with a higher registration serial.
type e15Renumber struct {
	host, toNet string
	at          sim.Duration
}

// e15Plan is everything derived from (spec, seed, regions) before any
// network exists: the cast of directories, services and clients, the
// renumber and attach events, and the full attempt schedule. Both modes
// replay the same plan, so their traffic differs only in how names are
// resolved.
type e15Plan struct {
	spec             topo.Spec
	seed             int64
	regions, workers int
	m                *topo.Manifest

	dirs       []string
	dirRegions int // distinct regions hosting a replica
	crash      string

	services, clients []string
	renumbers         []e15Renumber
	attachNet         string
	attachRegion      int
	attempts          []e15Attempt
}

func planE15(spec topo.Spec, seed int64, regions, workers int) *e15Plan {
	m := topo.ManifestOnly(spec, seed)
	part := topo.PartitionManifest(spec, m, regions, seed)
	m.Partition = part
	if len(m.Directories) < 2 {
		panic(fmt.Sprintf("exp: E15 needs >= 2 directory replicas, spec %q placed %d", spec, len(m.Directories)))
	}
	p := &e15Plan{
		spec: spec, seed: seed, regions: regions, workers: workers,
		m: m, dirs: m.Directories, crash: m.Directories[0],
	}

	nodeRegion := make(map[string]int, len(m.NodeDefs))
	for i, nd := range m.NodeDefs {
		nodeRegion[nd.Name] = part.NodeRegions[i]
	}
	netRegion := make(map[string]int, len(m.NetDefs))
	for i, nf := range m.NetDefs {
		netRegion[nf.Name] = part.NetRegions[i]
	}
	span := make(map[int]bool, len(p.dirs))
	for _, d := range p.dirs {
		span[nodeRegion[d]] = true
	}
	p.dirRegions = len(span)

	// Stub LANs owned by directory gateways: their hosts sit behind the
	// crash target, so they stay out of the client/service cast — the
	// experiment measures name-layer failover, not raw reachability loss.
	hostLAN := make(map[string]string, m.Hosts)
	lanSet := make(map[string]bool)
	for _, nd := range m.NodeDefs {
		if !nd.Forwarding {
			hostLAN[nd.Name] = nd.Nets[0]
			lanSet[nd.Nets[0]] = true
		}
	}
	dirSet := make(map[string]bool, len(p.dirs))
	for _, d := range p.dirs {
		dirSet[d] = true
	}
	dirLAN := make(map[string]bool)
	for _, nd := range m.NodeDefs {
		if nd.Forwarding && dirSet[nd.Name] {
			for _, n := range nd.Nets {
				if lanSet[n] {
					dirLAN[n] = true
				}
			}
		}
	}
	var eligible []string // non-directory stub LANs, in manifest order
	lanIdx := make(map[string]int)
	for _, nf := range m.NetDefs {
		if lanSet[nf.Name] && !dirLAN[nf.Name] {
			lanIdx[nf.Name] = len(eligible)
			eligible = append(eligible, nf.Name)
		}
	}
	if len(eligible) == 0 {
		panic(fmt.Sprintf("exp: E15 spec %q leaves no non-directory stub LAN", spec))
	}

	// Cast: with >= 2 hosts per LAN, the first host on each eligible LAN
	// serves and the rest are clients; with 1 host per LAN, alternate
	// whole LANs between the roles.
	seenLAN := make(map[string]bool)
	for _, h := range m.HostNames() {
		lan := hostLAN[h]
		if dirLAN[lan] {
			continue
		}
		switch {
		case spec.Hosts >= 2 && !seenLAN[lan]:
			seenLAN[lan] = true
			p.services = append(p.services, h)
		case spec.Hosts >= 2:
			p.clients = append(p.clients, h)
		case lanIdx[lan]%2 == 0:
			p.services = append(p.services, h)
		default:
			p.clients = append(p.clients, h)
		}
	}
	if len(p.clients) == 0 {
		p.clients = p.services // degenerate tiny spec: self-play
	}

	// Renumber targets: the first two services that have another
	// eligible LAN in their own region to move to.
	for _, svc := range p.services {
		if len(p.renumbers) == 2 {
			break
		}
		for _, l := range eligible {
			if l != hostLAN[svc] && netRegion[l] == nodeRegion[svc] {
				p.renumbers = append(p.renumbers, e15Renumber{
					host: svc, toNet: l,
					at: e15RenumberAt + sim.Duration(len(p.renumbers))*250*time.Millisecond,
				})
				break
			}
		}
	}
	p.attachNet = eligible[len(eligible)-1]
	p.attachRegion = netRegion[p.attachNet] // a stub LAN: in one region

	// Attempt schedule: per client, exponential inter-attempt gaps
	// around the mean, each client cycling through a small per-client
	// window of services (so repeat visits land inside the answer TTL
	// and the cache earns its keep, while the windows jointly cover
	// every service). One rng, drawn in fixed order — the same schedule
	// lands in both modes and at any worker count.
	rng := rand.New(rand.NewSource(seed ^ 0x9353))
	inter := workload.Exponential{Mean: e15AttemptMean}
	window := 3
	if window > len(p.services) {
		window = len(p.services)
	}
	for i := range p.clients {
		t := e15FirstAttempt + inter.Sample(rng)
		j := 0
		for t <= e15LastAttempt {
			p.attempts = append(p.attempts, e15Attempt{client: i, target: (i + j%window) % len(p.services), at: t})
			j++
			t += inter.Sample(rng)
		}
	}
	return p
}

// e15Att is one attempt's outcome, written only by its client's region
// kernel.
type e15Att struct {
	resolved bool // the resolve step produced an address
	done     bool // the full echo came back before the deadline
}

// e15ModeOut is one mode's raw outcome. Every field written during the
// run is owned by exactly one region kernel (per-attempt, per-host,
// per-server); aggregation happens after RunFor returns.
type e15ModeOut struct {
	s    *topo.Sharded
	atts []*e15Att

	autoOK []bool // per initial host: registration acknowledged

	regOK, reregOK []bool     // per server: zone milestones reached
	regAt, reregAt []sim.Time // ... and when

	probeOK    bool // the attached host answered a full echo
	probeAt    sim.Time
	probeTries int

	hxRegistered bool // the attached host's own registration acked

	servers   []*names.Server
	resolvers map[string]*names.Resolver
	hxRes     *names.Resolver
}

// e15Connect dials addr's echo service, writes one patterned request
// and calls cb(true) when the full echo returns, cb(false) when the
// deadline passes or the connection dies first; cb runs exactly once.
func e15Connect(nw *core.Network, from string, addr ipv4.Addr, cb func(ok bool)) {
	k := nw.Kernel()
	conn, err := nw.TCP(from).Dial(tcp.Endpoint{Addr: addr, Port: e15SvcPort}, e15TCPOpts())
	if err != nil {
		k.Defer(func() { cb(false) })
		return
	}
	fired := false
	finish := func(ok bool) {
		if !fired {
			fired = true
			cb(ok)
		}
	}
	payload := workload.PatternBytes(e15ReqBytes)
	got := 0
	conn.OnEstablished(func() { conn.Write(payload) })
	conn.OnData(func(b []byte) {
		got += len(b)
		if got >= e15ReqBytes {
			finish(true)
			conn.Close()
		}
	})
	conn.OnClose(func(error) { finish(false) })
	k.After(e15AttemptDeadline, func() {
		if !fired {
			finish(false)
			conn.Abort()
		}
	})
}

// runE15Mode builds a fresh sharded internet from the plan and runs one
// mode over it. In name mode every attempt resolves through the TTL
// cache; in pinned mode a client resolves each service once and pins
// the first answer forever — the address-literal habit the naming layer
// exists to replace.
func runE15Mode(p *e15Plan, pinned bool) *e15ModeOut {
	s := topo.GenerateSharded(p.spec, p.seed, p.regions, p.workers)
	for _, nw := range s.Regions {
		hookNet(nw)
	}
	out := &e15ModeOut{
		s:         s,
		resolvers: make(map[string]*names.Resolver),
	}

	// Directory replicas on their gateways, fully meshed for
	// incremental replication with periodic anti-entropy behind it.
	dirAddr := make([]ipv4.Addr, len(p.dirs))
	eps := make([]udp.Endpoint, len(p.dirs))
	for i, d := range p.dirs {
		dirAddr[i] = s.Addr(d)
		eps[i] = udp.Endpoint{Addr: dirAddr[i], Port: names.Port}
	}
	out.servers = make([]*names.Server, len(p.dirs))
	out.regOK = make([]bool, len(p.dirs))
	out.reregOK = make([]bool, len(p.dirs))
	out.regAt = make([]sim.Time, len(p.dirs))
	out.reregAt = make([]sim.Time, len(p.dirs))
	hostNames := p.m.HostNames()
	for i, d := range p.dirs {
		nw := s.Net(d)
		k := nw.Kernel()
		srv, err := names.NewServer(k, nw.UDP(d), d, names.ServerConfig{TTL: e15TTL, NegTTL: e15NegTTL, Sync: e15Sync})
		if err != nil {
			panic(err)
		}
		var peers []udp.Endpoint
		for j := range p.dirs {
			if j != i {
				peers = append(peers, eps[j])
			}
		}
		srv.SetPeers(peers)
		if e15TraceHook != nil {
			srv.Log = e15TraceHook
		}
		out.servers[i] = srv
		i := i
		srv.OnChange(func() {
			if !out.regOK[i] {
				all := true
				for _, h := range hostNames {
					if _, _, ok := srv.Lookup(h); !ok {
						all = false
						break
					}
				}
				if all {
					out.regOK[i] = true
					out.regAt[i] = k.Now()
				}
			}
			if !out.reregOK[i] && len(p.renumbers) > 0 {
				all := true
				for _, rn := range p.renumbers {
					if _, serial, ok := srv.Lookup(rn.host); !ok || serial < 2 {
						all = false
						break
					}
				}
				if all {
					out.reregOK[i] = true
					out.reregAt[i] = k.Now()
				}
			}
		})
	}

	// One autoconfiguration agent per gateway, its replica list sorted
	// nearest-first by the manifest's BFS metric — a host learns its
	// closest directory from whatever gateway answers its broadcast.
	hops := make([]map[string]int, len(p.dirs))
	for i, d := range p.dirs {
		hops[i] = p.m.NetHops(d)
	}
	for _, nd := range p.m.NodeDefs {
		if !nd.Forwarding {
			continue
		}
		firstNet := nd.Nets[0]
		idx := make([]int, len(p.dirs))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			da, ok := hops[idx[a]][firstNet]
			if !ok {
				da = 1 << 30
			}
			db, ok := hops[idx[b]][firstNet]
			if !ok {
				db = 1 << 30
			}
			return da < db
		})
		recs := make([]names.Record, len(p.dirs))
		for rank, i := range idx {
			recs[rank] = names.Record{Name: p.dirs[i], Addr: dirAddr[i], Serial: uint32(rank)}
		}
		if _, err := names.InstallAgent(s.Regions[0].UDP(nd.Name), recs); err != nil {
			panic(err)
		}
	}

	// Every host autoconfigures from t=0, staggered: discover the
	// gateway, install the default route it offers, register its name.
	out.autoOK = make([]bool, len(hostNames))
	for i, h := range hostNames {
		nw := s.Net(h)
		k := nw.Kernel()
		r, err := names.NewResolver(k, nw.UDP(h), names.ResolverConfig{})
		if err != nil {
			panic(err)
		}
		out.resolvers[h] = r
		ifc := nw.Node(h).Interfaces()[0]
		i, h := i, h
		k.After(sim.Duration(i)*e15AutoconfSpacing, func() {
			names.Autoconfigure(k, nw.UDP(h), ifc, r, names.HostConfig{Name: h, Serial: 1}, func(ok bool) {
				if ok {
					out.autoOK[i] = true
				}
			})
		})
	}

	// Echo services.
	echoAccept := func(c *tcp.Conn) {
		c.OnData(func(b []byte) { c.Write(b) })
	}
	for _, svc := range p.services {
		if _, err := s.Regions[0].TCP(svc).Listen(e15SvcPort, e15TCPOpts(), echoAccept); err != nil {
			panic(err)
		}
	}

	// Mode-aware resolution. Pinned clients resolve a name once and keep
	// the first answer for the rest of the run.
	var pins []map[string]ipv4.Addr
	if pinned {
		pins = make([]map[string]ipv4.Addr, len(p.clients))
		for i := range pins {
			pins[i] = make(map[string]ipv4.Addr)
		}
	}
	resolveAs := func(ci int, client, name string, cb func(ipv4.Addr, bool)) {
		r := out.resolvers[client]
		if !pinned {
			r.Resolve(name, cb)
			return
		}
		if a, ok := pins[ci][name]; ok {
			s.Net(client).Kernel().Defer(func() { cb(a, true) })
			return
		}
		r.Resolve(name, func(a ipv4.Addr, ok bool) {
			if ok {
				pins[ci][name] = a
			}
			cb(a, ok)
		})
	}

	// The attempt schedule.
	for _, a := range p.attempts {
		a := a
		att := &e15Att{}
		out.atts = append(out.atts, att)
		client := p.clients[a.client]
		svc := p.services[a.target]
		cnw := s.Net(client)
		cnw.Kernel().After(a.at, func() {
			resolveAs(a.client, client, svc, func(addr ipv4.Addr, ok bool) {
				if !ok {
					return
				}
				att.resolved = true
				e15Connect(cnw, client, addr, func(ok bool) {
					if ok {
						att.done = true
					}
				})
			})
		})
	}

	// Mid-run attach: a brand-new host joins a stub LAN with nothing but
	// its own name — no default route, no table edits, no place in the
	// static-route replay. Autoconfiguration alone must make it
	// reachable and resolvable.
	hnw := s.Regions[p.attachRegion]
	hk := hnw.Kernel()
	hk.After(e15AttachAt, func() {
		hnw.AddHost(e15AttachName)
		ifc := hnw.AttachNodeToNet(e15AttachName, p.attachNet)
		r, err := names.NewResolver(hk, hnw.UDP(e15AttachName), names.ResolverConfig{})
		if err != nil {
			return
		}
		out.hxRes = r
		if _, err := hnw.TCP(e15AttachName).Listen(e15SvcPort, e15TCPOpts(), echoAccept); err != nil {
			return
		}
		names.Autoconfigure(hk, hnw.UDP(e15AttachName), ifc, r, names.HostConfig{Name: e15AttachName, Serial: 1}, func(ok bool) {
			if ok {
				out.hxRegistered = true
			}
		})
	})

	// A prober resolves the newcomer by name until it completes a full
	// echo. Probing starts before the attach, so the early answers are
	// authoritative negatives and the negative cache absorbs the misses.
	prober := p.clients[0]
	pnw := s.Net(prober)
	pk := pnw.Kernel()
	var tryProbe func()
	tryProbe = func() {
		if out.probeOK || pk.Now().Seconds() > (e15Dur-e15AttemptDeadline).Seconds() {
			return
		}
		out.probeTries++
		resolveAs(0, prober, e15AttachName, func(addr ipv4.Addr, ok bool) {
			if !ok {
				pk.After(e15ProbeInterval, tryProbe)
				return
			}
			e15Connect(pnw, prober, addr, func(ok bool) {
				if ok {
					if !out.probeOK {
						out.probeOK = true
						out.probeAt = pk.Now()
					}
					return
				}
				pk.After(e15ProbeInterval, tryProbe)
			})
		})
	}
	pk.After(e15ProbeStart, tryProbe)

	// Fault schedule: crash one directory gateway mid-run, restore it
	// later; anti-entropy repairs its zone after restore.
	inj := fault.New(s.Regions[0], fault.Schedule{
		Name: "e15-dir-crash",
		Steps: []fault.Step{
			{At: e15CrashAt, Op: fault.OpCrash, Target: p.crash},
			{At: e15RestoreAt, Op: fault.OpRestore, Target: p.crash},
		},
	})
	if err := inj.Arm(); err != nil {
		panic(err)
	}

	// Renumber events: interface down, attach elsewhere, re-register
	// with a higher serial. Clients' cached answers go stale for at most
	// one TTL.
	for _, rn := range p.renumbers {
		rn := rn
		nw := s.Net(rn.host)
		k := nw.Kernel()
		k.After(rn.at, func() {
			node := nw.Node(rn.host)
			node.Interfaces()[0].NIC.SetUp(false)
			ifc := nw.AttachNodeToNet(rn.host, rn.toNet)
			names.Autoconfigure(k, nw.UDP(rn.host), ifc, out.resolvers[rn.host], names.HostConfig{Name: rn.host, Serial: 2}, func(bool) {})
		})
	}

	s.RunFor(e15Dur)
	return out
}

// e15Mode aggregates one mode's outcome into metrics and table rows.
func e15Mode(res *Result, p *e15Plan, mode string, out *e15ModeOut) {
	labels := []string{mode}
	attempts := len(out.atts)
	resolved, completed := 0, 0
	for _, a := range out.atts {
		if a.resolved {
			resolved++
		}
		if a.done {
			completed++
		}
	}

	var st names.ResolverStats
	lat := &stats.Sample{}
	addR := func(r *names.Resolver) {
		if r == nil {
			return
		}
		s := r.Stats()
		st.Lookups += s.Lookups
		st.Hits += s.Hits
		st.NegHits += s.NegHits
		st.Queries += s.Queries
		st.Retries += s.Retries
		st.Failovers += s.Failovers
		st.Answers += s.Answers
		st.NegAnswers += s.NegAnswers
		st.Fails += s.Fails
		st.Expired += s.Expired
		for _, d := range r.Latencies() {
			lat.Add(d.Seconds() * 1000)
		}
	}
	for _, h := range p.m.HostNames() {
		addR(out.resolvers[h])
	}
	addR(out.hxRes)
	cacheHit := 0.0
	if st.Lookups > 0 {
		cacheHit = float64(st.Hits+st.NegHits) / float64(st.Lookups)
	}

	autoOK := 0
	for _, ok := range out.autoOK {
		if ok {
			autoOK++
		}
	}

	// Zone milestones. Registration convergence is when the slowest
	// replica holds every initial host; re-registration convergence is
	// over the replicas that were up during the renumber; the crashed
	// replica's catch-up after restore is the anti-entropy figure.
	regConv, reregConv, restoreSync := -1.0, -1.0, -1.0
	regAll := true
	for i := range p.dirs {
		if !out.regOK[i] {
			regAll = false
			continue
		}
		if t := out.regAt[i].Seconds(); t > regConv {
			regConv = t
		}
	}
	if !regAll {
		regConv = -1
	}
	liveAll := len(p.renumbers) > 0
	for i, d := range p.dirs {
		if d == p.crash {
			continue
		}
		if !out.reregOK[i] {
			liveAll = false
			continue
		}
		if t := out.reregAt[i].Seconds() - e15RenumberAt.Seconds(); t > reregConv {
			reregConv = t
		}
	}
	if !liveAll {
		reregConv = -1
	}
	if out.reregOK[0] {
		restoreSync = out.reregAt[0].Seconds() - e15RestoreAt.Seconds()
	}

	attachS := -1.0
	if out.probeOK {
		attachS = out.probeAt.Seconds() - e15AttachAt.Seconds()
	}

	res.Table.AddRow(mode, "attempts resolved / completed",
		fmt.Sprintf("%d / %d of %d", resolved, completed, attempts))
	res.Table.AddRow(mode, "continuity", fmt.Sprintf("%.3f", ratio(completed, attempts)))
	res.Table.AddRow(mode, "resolve p50 / p90",
		fmt.Sprintf("%.1f / %.1f ms", lat.Percentile(50), lat.Percentile(90)))
	res.Table.AddRow(mode, "cache hit ratio", fmt.Sprintf("%.3f", cacheHit))
	res.Table.AddRow(mode, "queries / retries / failovers / fails",
		fmt.Sprintf("%d / %d / %d / %d", st.Queries, st.Retries, st.Failovers, st.Fails))
	res.Table.AddRow(mode, "autoconf registered", fmt.Sprintf("%d/%d", autoOK, len(out.autoOK)))
	res.Table.AddRow(mode, "reg conv / rereg conv / restore sync",
		fmt.Sprintf("%.2f / %.2f / %.2f s", regConv, reregConv, restoreSync))
	res.Table.AddRow(mode, "attach-to-resolvable",
		fmt.Sprintf("%.2fs (%d probes)", attachS, out.probeTries))

	res.AddLabelled("n", labels, "attempts", "", float64(attempts))
	res.AddLabelled("n", labels, "resolved", "", float64(resolved))
	res.AddLabelled("n", labels, "completed", "", float64(completed))
	res.AddLabelled("n", labels, "continuity", "", ratio(completed, attempts))
	res.AddLabelled("n", labels, "resolve_p50_ms", "ms", lat.Percentile(50))
	res.AddLabelled("n", labels, "resolve_p90_ms", "ms", lat.Percentile(90))
	res.AddLabelled("n", labels, "cache_hit", "", cacheHit)
	res.AddLabelled("n", labels, "queries", "", float64(st.Queries))
	res.AddLabelled("n", labels, "retries", "", float64(st.Retries))
	res.AddLabelled("n", labels, "failovers", "", float64(st.Failovers))
	res.AddLabelled("n", labels, "fails", "", float64(st.Fails))
	res.AddLabelled("n", labels, "neg_answers", "", float64(st.NegAnswers))
	res.AddLabelled("n", labels, "expired", "", float64(st.Expired))
	res.AddLabelled("n", labels, "autoconf", "", ratio(autoOK, len(out.autoOK)))
	res.AddLabelled("n", labels, "reg_conv_s", "s", regConv)
	res.AddLabelled("n", labels, "rereg_s", "s", reregConv)
	res.AddLabelled("n", labels, "restore_sync_s", "s", restoreSync)
	res.AddLabelled("n", labels, "attach_s", "s", attachS)
	res.AddLabelled("n", labels, "attach_ok", "", bool01(out.probeOK))
	res.AddCounterSums(mode, out.s.Group.Kernels()...)
}

// runE15 measures what a naming layer buys the architecture: clients
// reach services by name while one directory replica crashes and
// service hosts renumber mid-run. The same attempt schedule runs twice
// — resolving every attempt through the TTL cache (name mode) versus
// pinning the first resolved address forever (the address-literal
// baseline) — so the continuity gap is attributable to re-resolution
// alone. p.Topo and p.Regions are the internet and its partition; as
// with E16, every simulation result depends only on (spec, seed,
// regions), and p.Shards, the worker count, on nothing — directory
// traffic crosses the shard seam either way.
func runE15(seed int64, sc Params) Result {
	p := planE15(*sc.Topo, seed, sc.Regions, sc.Shards)

	res := Result{
		Table: stats.Table{Header: []string{"mode", "quantity", "value"}},
		Notes: []string{
			"name mode re-resolves through the TTL cache; pin mode keeps the first resolved address forever — the continuity gap is what re-resolution buys when hosts renumber.",
			fmt.Sprintf("directory %s crashes at %s and is restored at %s; %d service host(s) renumber from %s; host %q attaches at %s with no manual route or table edits.",
				p.crash, e15CrashAt, e15RestoreAt, len(p.renumbers), e15RenumberAt, e15AttachName, e15AttachAt),
			"every metric is byte-identical at any -shards value: the attempt schedule, autoconfiguration order and replica placement depend only on (spec, seed, regions).",
		},
	}
	res.Table.AddRow("topology", "spec", p.m.Spec)
	res.Table.AddRow("topology", "directories (crash target)",
		fmt.Sprintf("%v in %d region(s) (%s)", p.dirs, p.dirRegions, p.crash))
	res.Table.AddRow("topology", "services / clients / attempts",
		fmt.Sprintf("%d / %d / %d", len(p.services), len(p.clients), len(p.attempts)))
	moves := make([]string, len(p.renumbers))
	for i, rn := range p.renumbers {
		moves[i] = fmt.Sprintf("%s->%s@%s", rn.host, rn.toNet, rn.at)
	}
	res.Table.AddRow("topology", "renumbered hosts", fmt.Sprint(moves))

	res.AddMetric("directories", "", float64(len(p.dirs)))
	res.AddMetric("dir_regions", "", float64(p.dirRegions))
	res.AddMetric("services", "", float64(len(p.services)))
	res.AddMetric("clients", "", float64(len(p.clients)))
	res.AddMetric("renumbered", "", float64(len(p.renumbers)))
	// Each mode is reduced to its numbers before the next is built, so
	// only one mode's internet is ever alive.
	e15Mode(&res, p, "name", runE15Mode(p, false))
	e15Mode(&res, p, "pin", runE15Mode(p, true))
	return res
}
