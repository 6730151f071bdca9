package drive

import (
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/exp"
	"darpanet/internal/ipv4"
	"darpanet/internal/metrics"
	"darpanet/internal/names"
	"darpanet/internal/packet"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/sim"
	"darpanet/internal/stack"
	"darpanet/internal/tcp"
	"darpanet/internal/topo"
	"darpanet/internal/udp"
)

// ProbeKind says how a probe's span turns into its metric value.
type ProbeKind int

const (
	NsPerOp   ProbeKind = iota // span nanoseconds / ops
	SpanS                      // span seconds
	SpanMs                     // span milliseconds
	MBPerSec                   // ops is bytes: bytes / 1e6 / span seconds
	CountOnly                  // ops is the value; the span is not used
)

// Value turns the duration of a probe's span, and the number of
// operations it performed, into the metric's value.
func (k ProbeKind) Value(span time.Duration, ops float64) float64 {
	switch k {
	case NsPerOp:
		return float64(span) / ops
	case SpanS:
		return span.Seconds()
	case SpanMs:
		return span.Seconds() * 1e3
	case MBPerSec:
		return ops / 1e6 / span.Seconds()
	default: // CountOnly
		return ops
	}
}

// Probe times one layer's public entry point from outside. Prepare
// builds the inputs untimed and returns the work to put inside one span
// and how many operations that work performs.
type Probe struct {
	Metric  string
	Kind    ProbeKind
	Prepare func() (run func(), ops float64)
}

// pendingDepth is the number of timers sim.timer_churn_ns keeps pending:
// the depth collapse_mix reaches at its slice boundaries
// (sim.pending_events_max there: 337 at seed 1988, 373 at seed 7),
// rounded up to a power of two.
const pendingDepth = 512

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// Probes returns every layer probe, in the order they must run: the
// stack probes reuse the 2000-gateway internet topo.generate_sharded_s
// builds, and metrics reuses core.generate_200gw_s's network.
func Probes(seed int64, workers int) []Probe {
	var big *Sharded      // built by topo.generate_sharded_s
	var mid *core.Network // built by core.generate_200gw_s
	var bigRoutes []stack.Route
	var bigDsts []ipv4.Addr

	captureBig := func() {
		if bigRoutes != nil {
			return
		}
		// The busiest table: a transit gateway holds a route per stub
		// tier. Destinations are the host addresses the flows use.
		var widest *stack.Node
		for _, nw := range big.s.Regions {
			for _, name := range nw.Nodes() {
				if n := nw.Node(name); widest == nil || n.Table.Len() > widest.Table.Len() {
					widest = n
				}
			}
		}
		bigRoutes = widest.Table.Routes()
		for _, h := range big.s.Manifest.HostNames() {
			bigDsts = append(bigDsts, big.s.Addr(h))
		}
	}

	return []Probe{
		// ---- sim ----
		{"sim.schedule_fire_ns", NsPerOp, func() (func(), float64) {
			const n = 1_000_000
			k := sim.NewKernel(seed)
			fn := func() { sink++ }
			return func() {
				for i := 0; i < n; i++ {
					k.After(time.Microsecond, fn)
					k.Step()
				}
			}, n
		}},
		{"sim.timer_churn_ns", NsPerOp, func() (func(), float64) {
			const n = 500_000
			k := sim.NewKernel(seed)
			fn := func() { sink++ }
			for i := 0; i < pendingDepth; i++ {
				k.After(time.Duration(1+k.Rand().Intn(1000))*time.Millisecond, fn)
			}
			delays := make([]time.Duration, 1024)
			for i := range delays {
				delays[i] = time.Duration(1+k.Rand().Intn(1000)) * time.Millisecond
			}
			return func() {
				for i := 0; i < n; i++ {
					t := k.After(delays[i&1023], fn)
					t.Stop()
				}
			}, n
		}},
		{"sim.barrier_ns", NsPerOp, func() (func(), float64) {
			const epochs = 100_000
			ks := make([]*sim.Kernel, ShardRegions)
			for i := range ks {
				ks[i] = sim.NewKernel(seed + int64(i))
			}
			g := sim.NewShardGroup(ks, time.Millisecond, workers)
			g.SetExchange(func() {})
			return func() { g.RunFor(epochs * time.Millisecond) }, epochs
		}},

		// ---- packet ----
		{"packet.checksum_64b_ns", NsPerOp, func() (func(), float64) {
			const n = 2_000_000
			data := Pattern(seed, 64)
			return func() {
				for i := 0; i < n; i++ {
					sink += uint64(packet.Checksum(data))
				}
			}, n
		}},
		{"packet.checksum_1460b_ns", NsPerOp, func() (func(), float64) {
			const n = 300_000
			data := Pattern(seed, 1460)
			return func() {
				for i := 0; i < n; i++ {
					sink += uint64(packet.Checksum(data))
				}
			}, n
		}},
		{"packet.pool_getput_ns", NsPerOp, func() (func(), float64) {
			const n = 2_000_000
			p := packet.NewPool()
			p.Put(p.Get(512))
			return func() {
				for i := 0; i < n; i++ {
					p.Put(p.Get(512))
				}
			}, n
		}},

		// ---- ipv4 ----
		{"ipv4.header_roundtrip_ns", NsPerOp, func() (func(), float64) {
			const n = 1_000_000
			pool := packet.NewPool()
			payload := Pattern(seed, 44)
			h := ipv4.Header{TTL: 64, Proto: chainProto, Src: ipv4.AddrFrom4(10, 0, 1, 1), Dst: ipv4.AddrFrom4(10, 0, 9, 2)}
			var b packet.Buffer
			return func() {
				for i := 0; i < n; i++ {
					h.ID = uint16(i)
					b.Reset(pool, ipv4.HeaderLen, payload)
					if err := h.Marshal(&b); err != nil {
						panic(err)
					}
					got, _, err := ipv4.Parse(b.Bytes())
					if err != nil {
						panic(err)
					}
					sink += uint64(got.ID)
					b.Release()
				}
			}, n
		}},
		{"ipv4.decrement_ttl_ns", NsPerOp, func() (func(), float64) {
			const n = 2_000_000
			h := ipv4.Header{TTL: 255, Proto: chainProto, Src: ipv4.AddrFrom4(10, 0, 1, 1), Dst: ipv4.AddrFrom4(10, 0, 9, 2)}
			orig := h.MarshalStandalone()
			raw := make([]byte, len(orig))
			return func() {
				for i := 0; i < n; i++ {
					if i&127 == 0 {
						copy(raw, orig)
					}
					if !ipv4.DecrementTTL(raw) {
						panic("ttl expired in probe")
					}
				}
			}, n
		}},
		{"ipv4.fragment_ns", NsPerOp, func() (func(), float64) {
			const n = 100_000
			payload := Pattern(seed, 1400)
			h := ipv4.Header{TTL: 64, Proto: 6, ID: 1, Src: ipv4.AddrFrom4(10, 1, 0, 1), Dst: ipv4.AddrFrom4(10, 4, 0, 2)}
			return func() {
				for i := 0; i < n; i++ {
					hs, _, err := ipv4.Fragment(h, payload, 256)
					if err != nil {
						panic(err)
					}
					sink += uint64(len(hs))
				}
			}, n
		}},
		{"ipv4.reassemble_ns", NsPerOp, func() (func(), float64) {
			const n = 100_000
			k := sim.NewKernel(seed)
			pool := packet.NewPool()
			r := ipv4.NewReassembler(k, 30*time.Second)
			r.SetPool(pool)
			h := ipv4.Header{TTL: 64, Proto: 6, Src: ipv4.AddrFrom4(10, 1, 0, 1), Dst: ipv4.AddrFrom4(10, 4, 0, 2)}
			hs, ps, err := ipv4.Fragment(h, Pattern(seed, 1400), 256)
			if err != nil {
				panic(err)
			}
			return func() {
				for i := 0; i < n; i++ {
					for j := range hs {
						fh := hs[j]
						fh.ID = uint16(i)
						if _, whole, ok := r.Add(fh, ps[j]); ok {
							sink += uint64(len(whole))
							pool.Put(whole)
						}
					}
				}
				if r.Pending() != 0 {
					panic("reassembly probe left partial datagrams")
				}
			}, n
		}},

		// ---- phys ----
		{"phys.nic_send_deliver_ns", NsPerOp, func() (func(), float64) {
			const n = 1_000_000
			k := sim.NewKernel(seed)
			pool := packet.NewPool()
			link := phys.NewP2P(k, "l", phys.Config{MTU: 1500})
			a, b := link.Attach("a"), link.Attach("b")
			a.SetPool(pool)
			b.SetPool(pool)
			b.SetReceiver(func(f phys.Frame) { sink += uint64(len(f.Payload)); f.Release() })
			return func() {
				for i := 0; i < n; i++ {
					a.Send(b.Addr(), pool.Get(64))
					k.Run()
				}
			}, n
		}},
		{"phys.qdisc_droptail_ns", NsPerOp, qdiscProbe(seed, phys.PolicySpec{Kind: phys.PolicyDropTail})},
		{"phys.qdisc_red_ns", NsPerOp, qdiscProbe(seed, phys.PolicySpec{Kind: phys.PolicyRED, MinTh: 16, MaxTh: 64, MaxP: 0.1, Wq: 1})},
		{"phys.boundary_drain_ns", NsPerOp, func() (func(), float64) {
			const n = 200_000
			ka, kb := sim.NewKernel(seed), sim.NewKernel(seed+1)
			pa, pb := packet.NewPool(), packet.NewPool()
			ba, bb := phys.NewBoundaryPair(ka, kb, "x", phys.Config{MTU: 1500, Delay: 3 * time.Millisecond})
			na, nb := ba.Attach("a"), bb.Attach("b")
			na.SetPool(pa)
			nb.SetPool(pb)
			nb.SetReceiver(func(f phys.Frame) { sink += uint64(len(f.Payload)); f.Release() })
			// Park n frames in a's outbox: the link serializes them in
			// a's kernel, and nothing crosses until Drain.
			for i := 0; i < n; i++ {
				na.Send(nb.Addr(), pa.Get(64))
				if i&31 == 31 {
					ka.Run()
				}
			}
			ka.Run()
			return func() {
				ba.Drain()
				kb.Run()
			}, n
		}},

		// ---- stack ----
		{"stack.lookup_small_ns", NsPerOp, func() (func(), float64) {
			const n = 3_000_000
			var t stack.RouteTable
			t.Add(stack.Route{Prefix: ipv4.MustParsePrefix("10.0.1.0/24"), Source: stack.SourceDirect})
			t.Add(stack.Route{Prefix: ipv4.MustParsePrefix("10.0.2.0/24"), IfIndex: 1, Source: stack.SourceDirect})
			t.Add(stack.Route{Prefix: ipv4.MustParsePrefix("10.0.9.0/24"), Via: ipv4.AddrFrom4(10, 0, 2, 2), IfIndex: 1, Source: stack.SourceStatic})
			dst := ipv4.AddrFrom4(10, 0, 9, 2)
			return func() {
				for i := 0; i < n; i++ {
					r, ok := t.Lookup(dst)
					if !ok {
						panic("no route in probe")
					}
					sink += uint64(r.IfIndex)
				}
			}, n
		}},
		{"topo.manifest_only_s", SpanS, func() (func(), float64) {
			return func() { sink += uint64(topo.ManifestOnly(exp.E16Spec(), seed).Nets) }, 1
		}},
		{"topo.generate_sharded_s", SpanS, func() (func(), float64) {
			return func() {
				var err error
				if big, err = NewSharded(E16Spec, seed, ShardRegions, workers); err != nil {
					panic(err)
				}
			}, 1
		}},
		{"stack.route_table_len_p50", CountOnly, func() (func(), float64) {
			lens := big.RouteTableLens()
			return func() {}, float64(lens[len(lens)/2])
		}},
		{"stack.route_table_len_max", CountOnly, func() (func(), float64) {
			lens := big.RouteTableLens()
			return func() {}, float64(lens[len(lens)-1])
		}},
		{"stack.lookup_large_ns", NsPerOp, func() (func(), float64) {
			const n = 1_000_000
			captureBig()
			var t stack.RouteTable
			t.AddBatch(bigRoutes)
			t.Lookup(bigDsts[0]) // build the index outside the span
			return func() {
				for i := 0; i < n; i++ {
					r, _ := t.Lookup(bigDsts[i%len(bigDsts)])
					sink += uint64(r.IfIndex)
				}
			}, n
		}},
		{"stack.addbatch_ns_per_route", NsPerOp, func() (func(), float64) {
			captureBig()
			reps := 1 + 200_000/len(bigRoutes)
			return func() {
				for i := 0; i < reps; i++ {
					var t stack.RouteTable
					t.AddBatch(bigRoutes)
					r, _ := t.Lookup(bigDsts[i%len(bigDsts)])
					sink += uint64(r.IfIndex)
				}
			}, float64(reps * len(bigRoutes))
		}},
		{"stack.forward_hop_ns", NsPerOp, func() (func(), float64) {
			const n = 500_000
			c := NewChain(seed, 1, 44)
			if err := c.Send(64, 1); err != nil {
				panic(err)
			}
			return func() {
				if err := c.Send(n, 1); err != nil {
					panic(err)
				}
			}, 2 * n
		}},

		// ---- udp ----
		{"udp.sendto_deliver_ns", NsPerOp, func() (func(), float64) {
			const n = 500_000
			nw := twoHosts(seed)
			got := 0
			if _, err := nw.UDP("b").Listen(7, func(udp.Endpoint, []byte, ipv4.Header) { got++ }); err != nil {
				panic(err)
			}
			sock, err := nw.UDP("a").Listen(0, func(udp.Endpoint, []byte, ipv4.Header) {})
			if err != nil {
				panic(err)
			}
			dst := udp.Endpoint{Addr: nw.Addr("b"), Port: 7}
			body := Pattern(seed, 64)
			k := nw.Kernel()
			return func() {
				for i := 0; i < n; i++ {
					sock.SendTo(dst, body)
					k.Run()
				}
				if got != n {
					panic(fmt.Sprintf("udp probe delivered %d of %d", got, n))
				}
			}, n
		}},

		// ---- tcp ----
		{"tcp.loopback_mbps", MBPerSec, func() (func(), float64) {
			const size = 4 << 20
			nw := twoHosts(seed)
			data := Pattern(seed, size)
			return func() {
				tr := startBulk(nw, nw, "a", "b", 9000, data, data, tcp.Options{MSS: 1460})
				for i := 0; i < 10_000 && !tr.Done; i++ {
					nw.RunFor(100 * time.Millisecond)
				}
				if !tr.Intact() {
					panic(fmt.Sprintf("tcp loopback probe: %d of %d bytes, %d wrong, err %v", tr.Received, tr.Target, tr.Mismatched, tr.Err))
				}
			}, size
		}},
		{"tcp.conn_setup_teardown_ns", NsPerOp, func() (func(), float64) {
			const n = 10_000
			nw := twoHosts(seed)
			closed := 0
			if _, err := nw.TCP("b").Listen(9001, tcp.Options{}, func(c *tcp.Conn) {
				c.OnEOF(c.Close)
			}); err != nil {
				panic(err)
			}
			dst := tcp.Endpoint{Addr: nw.Addr("b"), Port: 9001}
			k := nw.Kernel()
			return func() {
				for i := 0; i < n; i++ {
					c, err := nw.TCP("a").Dial(dst, tcp.Options{})
					if err != nil {
						panic(err)
					}
					c.OnEstablished(c.Close)
					c.OnClose(func(error) { closed++ })
					k.Run()
				}
				if closed != n {
					panic(fmt.Sprintf("tcp setup probe closed %d of %d", closed, n))
				}
			}, n
		}},

		// ---- rip ----
		{"rip.converge_ring16_ms", SpanMs, func() (func(), float64) {
			const gws = 16
			nw := core.New(seed)
			for i := 0; i < gws; i++ {
				nw.AddNet(fmt.Sprintf("r%d", i), fmt.Sprintf("10.%d.0.0/24", i), core.P2P,
					phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500})
			}
			gwNames := make([]string, gws)
			for i := range gwNames {
				gwNames[i] = fmt.Sprintf("g%d", i)
				nw.AddGateway(gwNames[i], fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", (i+1)%gws))
			}
			return func() {
				nw.EnableRIP(rip.DefaultConfig(), gwNames...)
				for i := 0; i < 3000 && !nw.Converged(); i++ {
					nw.RunFor(100 * time.Millisecond)
				}
				if !nw.Converged() {
					panic("rip probe: ring did not converge in 300 simulated seconds")
				}
			}, 1
		}},

		// ---- names ----
		{"names.codec_roundtrip_ns", NsPerOp, func() (func(), float64) {
			const n = 500_000
			m := names.Message{Op: names.OpAnswer, ID: 7, Serial: 42, Records: []names.Record{
				{Name: "h17.stub3.darpa", Addr: ipv4.AddrFrom4(10, 3, 0, 17), Serial: 42, TTLms: 5000},
			}}
			return func() {
				for i := 0; i < n; i++ {
					m.ID = uint16(i)
					b, err := m.Marshal()
					if err != nil {
						panic(err)
					}
					got, err := names.Parse(b)
					if err != nil {
						panic(err)
					}
					sink += uint64(got.ID)
				}
			}, n
		}},

		// ---- core, metrics, workload ----
		{"core.generate_200gw_s", SpanS, func() (func(), float64) {
			return func() {
				mid, _ = topo.Generate(topo.DefaultSpec(), seed)
				mid.InstallStaticRoutes()
			}, 1
		}},
		{"metrics.snapshot_ns_per_desc", NsPerOp, func() (func(), float64) {
			const reps = 20
			reg := metrics.For(mid.Kernel())
			return func() {
				for i := 0; i < reps; i++ {
					sink += uint64(len(reg.Snapshot()))
				}
			}, float64(reps * reg.Len())
		}},
		{"workload.arm_s", SpanS, func() (func(), float64) {
			c := StormCell(seed, 0)
			c.Generate()
			c.InstallRoutes()
			c.InstallQdisc()
			return func() { c.Arm(CollapseWindow) }, 1
		}},
	}
}

// twoHosts is a and b on one zero-delay, infinite-rate link.
func twoHosts(seed int64) *core.Network {
	nw := core.New(seed)
	nw.AddNet("l", "10.9.0.0/24", core.P2P, phys.Config{MTU: 1500})
	nw.AddHost("a", "l")
	nw.AddHost("b", "l")
	return nw
}

// qdiscProbe bursts 32 datagrams at a time through a gateway whose
// egress trunk runs at 8 Mb/s, as stack's BenchmarkForwardHotPathREDPolicy
// does, so most of them queue and run the policy's enqueue decision.
// The value is host time per datagram offered, policy and forwarding
// together; the difference between the two policies is the policy.
func qdiscProbe(seed int64, spec phys.PolicySpec) func() (func(), float64) {
	return func() (func(), float64) {
		const bursts, burst = 4000, 32
		nw := core.New(seed)
		nw.AddNet("in", "10.0.1.0/24", core.P2P, phys.Config{MTU: 1500})
		nw.AddNet("out", "10.0.2.0/24", core.P2P, phys.Config{MTU: 1500, BitsPerSec: 8_000_000})
		nw.AddHost("a", "in")
		nw.AddGateway("gw", "in", "out")
		nw.AddHost("b", "out")
		nw.InstallStaticRoutes()
		nw.Node("gw").InstallQueuePolicy(128, spec)
		nw.Node("b").RegisterProtocol(chainProto, func(ipv4.Header, []byte) { sink++ })
		src := nw.Node("a")
		hdr := ipv4.Header{Dst: nw.Addr("b"), Proto: chainProto}
		payload := Pattern(seed, 512)
		k := nw.Kernel()
		return func() {
			for i := 0; i < bursts; i++ {
				for j := 0; j < burst; j++ {
					if err := src.Send(hdr, payload); err != nil {
						panic(err)
					}
				}
				k.Run()
			}
		}, bursts * burst
	}
}
