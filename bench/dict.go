package main

// The metric dictionary: every name this program prints, with its unit
// and the direction that counts as better. BENCHMARK.json at the repo
// root is the contract copy; a self-test keeps the two in step.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string  // per-layer only: count, probe, cpu, span, runtime or bench
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"fwd_chain_64b", "Bare forwarding of 64 B datagrams through 8 gateways: per-packet cost of sim/phys/stack/ipv4/packet is everything; tcp, workload, topo, rip idle."},
	{"tcp_bulk_hetero", "16 concurrent 4 MiB TCP transfers across four unlike nets: per-byte cost of tcp, checksums, fragmentation at three gateways, reassembly, loss recovery."},
	{"collapse_mix", "E13's 8xT1 load point as alternating drop-tail/naive storm and RED/NewReno cells to a 1M-frame quota: timer churn, AQM queues, workload engine; what users run most."},
	{"scale_sharded_2000gw", "512 UDP request/response flows over the sharded 2000-gateway internet: large route tables, 35-hop paths, boundary outboxes and epoch barriers."},
	{"campaign_mc", "4-replica Monte Carlo campaigns over E1-E11 and E15: short-lived kernels, so assembly, rip/names convergence, allocation and GC dominate."},
}

var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "frames_per_s", Unit: "frames/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

var perLayerDefs = []metricDef{
	// sim
	{Name: "sim.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on collapse_mix and fwd_chain_64b"},
	{Name: "sim.schedule_fire_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "sim.timer_churn_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on collapse_mix; flat on fwd_chain_64b"},
	{Name: "sim.pending_events_max", Unit: "count", Better: "lower", Source: "count", Moves: "heap depth behind sim.timer_churn_ns"},
	{Name: "sim.shard_busy_s", Unit: "s", Better: "lower", Source: "count", Moves: "wall_s on scale_sharded_2000gw"},
	{Name: "sim.shard_critical_s", Unit: "s", Better: "lower", Source: "count", Moves: "wall_s on scale_sharded_2000gw"},
	{Name: "sim.shard_util", Unit: "share", Better: "higher", Source: "count", Moves: "wall_s on scale_sharded_2000gw"},
	{Name: "sim.shard_epochs", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on scale_sharded_2000gw"},
	{Name: "sim.barrier_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on scale_sharded_2000gw only"},
	// packet
	{Name: "packet.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "packet.checksum_64b_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "packet.checksum_1460b_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "packet.pool_getput_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "packet.pool_hit_ratio", Unit: "ratio", Better: "higher", Source: "count", Moves: "wall_s and peak_rss_mb on campaign_mc"},
	// ipv4
	{Name: "ipv4.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "ipv4.header_roundtrip_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "ipv4.decrement_ttl_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "ipv4.fragment_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on tcp_bulk_hetero; flat elsewhere"},
	{Name: "ipv4.reassemble_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on tcp_bulk_hetero; flat elsewhere"},
	{Name: "ipv4.frag_created", Unit: "count", Better: "lower", Source: "count", Moves: "frames_per_s on tcp_bulk_hetero"},
	{Name: "ipv4.reasm_fragments", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "ipv4.reasm_timeouts", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on tcp_bulk_hetero"},
	// phys
	{Name: "phys.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "phys.tx_frames", Unit: "count", Better: "lower", Source: "count", Moves: "frames_per_s numerator, every workload"},
	{Name: "phys.tx_bytes", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "phys.queue_drops", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on collapse_mix"},
	{Name: "phys.rx_lost", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "phys.aqm_enqueues", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on collapse_mix"},
	{Name: "phys.aqm_early_drops", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on collapse_mix (managed cell)"},
	{Name: "phys.nic_send_deliver_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "phys.qdisc_droptail_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on collapse_mix"},
	{Name: "phys.qdisc_red_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on collapse_mix"},
	{Name: "phys.boundary_drain_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on scale_sharded_2000gw"},
	// stack
	{Name: "stack.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on scale_sharded_2000gw"},
	{Name: "stack.lookup_small_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "stack.lookup_large_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on scale_sharded_2000gw; flat on the first three"},
	{Name: "stack.addbatch_ns_per_route", Unit: "ns", Better: "lower", Source: "probe", Moves: "setup_s on scale_sharded_2000gw"},
	{Name: "stack.route_table_len_p50", Unit: "count", Better: "lower", Source: "count", Moves: "stack.lookup_large_ns"},
	{Name: "stack.route_table_len_max", Unit: "count", Better: "lower", Source: "count", Moves: "stack.lookup_large_ns"},
	{Name: "stack.forward_hop_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "frames_per_s on fwd_chain_64b"},
	{Name: "stack.ip_forwarded", Unit: "count", Better: "lower", Source: "count", Moves: "frames_per_s, every workload"},
	{Name: "stack.in_delivers", Unit: "count", Better: "higher", Source: "count", Moves: "frames_per_s, every workload"},
	{Name: "stack.no_route", Unit: "count", Better: "lower", Source: "count", Moves: "correctness: expected 0"},
	{Name: "stack.ttl_drops", Unit: "count", Better: "lower", Source: "count", Moves: "correctness: expected 0"},
	{Name: "stack.forwards_per_delivery", Unit: "ratio", Better: "lower", Source: "count", Moves: "wall_s on scale_sharded_2000gw"},
	// udp
	{Name: "udp.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on scale_sharded_2000gw"},
	{Name: "udp.sendto_deliver_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on scale_sharded_2000gw"},
	// tcp
	{Name: "tcp.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on tcp_bulk_hetero and collapse_mix"},
	{Name: "tcp.segs_sent", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "tcp.segs_received", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "tcp.retransmits", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on collapse_mix"},
	{Name: "tcp.timeouts", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on collapse_mix"},
	{Name: "tcp.conns", Unit: "count", Better: "lower", Source: "count", Moves: "peak_rss_mb on collapse_mix"},
	{Name: "tcp.retrans_ratio", Unit: "ratio", Better: "lower", Source: "count", Moves: "wasted work: frames_per_s vs wall_s on collapse_mix"},
	{Name: "tcp.loopback_mbps", Unit: "MB/s", Better: "higher", Source: "probe", Moves: "wall_s on tcp_bulk_hetero"},
	{Name: "tcp.conn_setup_teardown_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on collapse_mix and campaign_mc"},
	// rip
	{Name: "rip.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on campaign_mc"},
	{Name: "rip.updates_sent", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on campaign_mc"},
	{Name: "rip.route_changes", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on campaign_mc"},
	{Name: "rip.converge_ring16_ms", Unit: "ms", Better: "lower", Source: "probe", Moves: "wall_s on campaign_mc"},
	// names
	{Name: "names.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on campaign_mc (E15)"},
	{Name: "names.codec_roundtrip_ns", Unit: "ns", Better: "lower", Source: "probe", Moves: "wall_s on campaign_mc (E15) only"},
	// topo
	{Name: "topo.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "setup_s on scale_sharded_2000gw"},
	{Name: "topo.generate_sharded_s", Unit: "s", Better: "lower", Source: "span", Moves: "setup_s on scale_sharded_2000gw"},
	{Name: "topo.manifest_only_s", Unit: "s", Better: "lower", Source: "span", Moves: "setup_s on scale_sharded_2000gw"},
	// core
	{Name: "core.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on campaign_mc"},
	{Name: "core.generate_200gw_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc; setup_s on collapse_mix"},
	// workload
	{Name: "workload.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on collapse_mix"},
	{Name: "workload.flows_started", Unit: "count", Better: "higher", Source: "count", Moves: "wall_s on collapse_mix"},
	{Name: "workload.flows_completed", Unit: "count", Better: "higher", Source: "count", Moves: "wall_s on collapse_mix"},
	{Name: "workload.goodput_frac", Unit: "ratio", Better: "higher", Source: "count", Moves: "fixed point of the model: delivered/offered bytes"},
	{Name: "workload.arm_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on collapse_mix"},
	// harness / exp
	{Name: "harness.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on campaign_mc"},
	{Name: "harness.replicas_per_s", Unit: "1/s", Better: "higher", Source: "count", Moves: "wall_s on campaign_mc"},
	{Name: "harness.parallel_eff", Unit: "share", Better: "higher", Source: "count", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E1.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E2.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E3.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E4.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E5.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E6.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E7.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E8.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E9.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E10.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E11.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	{Name: "exp.E15.wall_s", Unit: "s", Better: "lower", Source: "span", Moves: "wall_s on campaign_mc"},
	// metrics
	{Name: "metrics.snapshot_ns_per_desc", Unit: "ns", Better: "lower", Source: "probe", Moves: "benchmark overhead; wall_s on campaign_mc"},
	// runtime
	{Name: "runtime.cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "wall_s on campaign_mc and tcp_bulk_hetero"},
	{Name: "runtime.allocs_per_kframe", Unit: "count", Better: "lower", Source: "runtime", Moves: "wall_s on tcp_bulk_hetero; expected 0 on fwd_chain_64b"},
	{Name: "runtime.alloc_mb_per_iter", Unit: "MiB", Better: "lower", Source: "runtime", Moves: "wall_s and peak_rss_mb on campaign_mc"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Source: "runtime", Moves: "wall_s on campaign_mc"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Source: "runtime", Moves: "wall_s on campaign_mc"},
	// bench
	{Name: "bench.calib_ns", Unit: "ns", Better: "lower", Source: "bench", Moves: "nothing: drift means the host, not the program, changed"},
	{Name: "bench.wall_iqr_frac", Unit: "share", Better: "lower", Source: "bench", Moves: "nothing: the spread the bounds are judged against"},
	{Name: "bench.trace_overhead_frac", Unit: "share", Better: "lower", Source: "bench", Moves: "nothing: traced median / untraced median - 1"},
	{Name: "bench.other_cpu_share", Unit: "share", Better: "lower", Source: "cpu", Moves: "CPU outside the named layers (benchmark, stdlib, small layers)"},
	{Name: "bench.digest_match", Unit: "count", Better: "higher", Source: "bench", Moves: "1 recorded digest matches, 0 the modelled network changed, -1 seed not recorded"},
}
