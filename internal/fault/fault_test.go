package fault_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/fault"
	"darpanet/internal/ipv4"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/tcp"
	"darpanet/internal/udp"
)

// recoveryNet is the E11 topology: the E1 square backbone with gwC
// double-homed onto lanB so an alternate path to h2 survives gwB.
func recoveryNet(seed int64) *core.Network {
	nw := core.New(seed)
	trunk := phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500, QueueLimit: 64}
	lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 64}
	nw.AddNet("lanA", "10.1.0.0/24", core.LAN, lan)
	nw.AddNet("lanB", "10.2.0.0/24", core.LAN, lan)
	nw.AddNet("n1", "10.9.1.0/24", core.P2P, trunk)
	nw.AddNet("n2", "10.9.2.0/24", core.P2P, trunk)
	nw.AddNet("n3", "10.9.3.0/24", core.P2P, trunk)
	nw.AddNet("n4", "10.9.4.0/24", core.P2P, trunk)
	nw.AddHost("h1", "lanA")
	nw.AddHost("h2", "lanB")
	nw.AddGateway("gwA", "lanA", "n1", "n4")
	nw.AddGateway("gwB", "lanB", "n1", "n2")
	nw.AddGateway("gwC", "n2", "n3")
	nw.AddGateway("gwD", "n3", "n4")
	nw.AttachNodeToNet("gwC", "lanB")
	nw.EnableRIP(rip.FastConfig())
	return nw
}

// floodUDP sends a datagram from h1 to h2 every interval for the whole
// run, so blackouts have traffic to lose.
func floodUDP(t *testing.T, nw *core.Network, interval time.Duration, count int) {
	t.Helper()
	sock, err := nw.UDP("h1").Listen(0, func(udp.Endpoint, []byte, ipv4.Header) {})
	if err != nil {
		t.Fatal(err)
	}
	dst := udp.Endpoint{Addr: nw.Addr("h2"), Port: 9}
	payload := make([]byte, 256)
	for i := 0; i < count; i++ {
		d := time.Duration(i) * interval
		nw.Kernel().After(d, func() { sock.SendTo(dst, payload) })
	}
}

func TestParseAndRender(t *testing.T) {
	s, err := fault.Parse("demo", `
		# a comment
		5s cut n1
		12s heal n1        # trailing comment
		30s crash gwB
		50s restore gwB
		20s ifdown gwB 1
		22s ifup gwB 1
		70s storm lanB 0.4 5s
		55s flap n2 2 500ms
	`)
	if err != nil {
		t.Fatal(err)
	}
	// flap expands to 4 steps, storm to 2; total 6 singles + 6 = 12.
	if len(s.Steps) != 12 {
		t.Fatalf("got %d steps, want 12:\n%s", len(s.Steps), s)
	}
	for i := 1; i < len(s.Steps); i++ {
		if s.Steps[i].At < s.Steps[i-1].At {
			t.Fatalf("steps not sorted at %d:\n%s", i, s)
		}
	}
	// Round-trip: rendering and re-parsing is the identity.
	s2, err := fault.Parse("demo", s.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Steps, s2.Steps) {
		t.Fatalf("round trip changed schedule:\n%s\nvs\n%s", s, s2)
	}
}

// TestParseErrors: each schedule's last line is bad, and the error names
// it.
func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"5s explode n1",
		"soon cut n1",
		"5s cut",
		"5s storm n1 1.5 2s",
		"5s storm n1 0.5 -2s",
		"5s storm n1",
		"5s flap n1 0 2s",
		"5s ifdown gwB x",
		// An offset before Arm, which the kernel would run at once.
		"5s cut n1\n-5s heal n1",
		"-1ns crash gwB",
		// A flap is two steps a cycle: its count is bounded.
		"0s flap n1 101 1s",
		// A step past the largest Duration would wrap to the past.
		"2562047h storm n1 0.5 2562047h",
		"1s cut n1\n0s flap n1 2 2562047h",
	} {
		line := fmt.Sprintf("line %d:", strings.Count(bad, "\n")+1)
		if _, err := fault.Parse("bad", bad); err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("Parse(%q) = %v, want an error at %s", bad, err, line)
		}
	}
}

func TestPresetsParse(t *testing.T) {
	names := fault.PresetNames()
	if len(names) == 0 {
		t.Fatal("no presets")
	}
	for _, name := range names {
		s, ok := fault.Preset(name)
		if !ok || len(s.Steps) == 0 {
			t.Errorf("preset %q empty", name)
		}
	}
	if _, ok := fault.Preset("no-such-preset"); ok {
		t.Error("unknown preset reported as found")
	}
}

func TestRandomDeterministic(t *testing.T) {
	opts := fault.RandomOptions{
		Nets:     []string{"n1", "n2", "n3"},
		Nodes:    []string{"gwB", "gwC"},
		Episodes: 5,
		Start:    10 * time.Second,
		Spread:   60 * time.Second,
		MinDwell: 5 * time.Second,
		MaxDwell: 15 * time.Second,
	}
	a := fault.Random(rand.New(rand.NewSource(7)), opts)
	b := fault.Random(rand.New(rand.NewSource(7)), opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a, b)
	}
	c := fault.Random(rand.New(rand.NewSource(8)), opts)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a.Steps) != 2*opts.Episodes {
		t.Fatalf("got %d steps, want %d", len(a.Steps), 2*opts.Episodes)
	}
}

// TestArmRefusesWhatTheInternetLacks: a step naming a node, net or
// interface the internet does not have is refused by Arm, with the step
// in the error, before any step fires — not a panic in the middle of
// the run.
func TestArmRefusesWhatTheInternetLacks(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"5s cut n1\n10s crash gwZ\n", `step "10s crash gwZ": no node gwZ in the internet`},
		{"5s crash gwB\n10s cut nZ\n", `step "10s cut nZ": no net nZ in the internet`},
		{"5s cut n1\n10s ifdown gwB 9\n", `step "10s ifdown gwB 9": gwB has no interface 9`},
		{"5s cut n1\n10s storm lanZ 0.5\n", `step "10s storm lanZ 0.5": no net lanZ in the internet`},
	} {
		nw := recoveryNet(1)
		in := fault.New(nw, fault.MustParse("bad", tc.text))
		if err := in.Arm(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: Arm() = %v, want an error containing %q", tc.text, err, tc.want)
		}
		nw.RunFor(20 * time.Second)
		if evs := in.Events(); len(evs) != 0 {
			t.Errorf("%q: %d steps fired after Arm refused the schedule", tc.text, len(evs))
		}
		if nw.Medium("n1").Down() || !nw.RIP("gwB").Running() {
			t.Errorf("%q: the internet changed after Arm refused the schedule", tc.text)
		}
	}
}

// TestCrashRecoveryMeasured drives the canonical crash/restore scenario
// and checks the injector's recovery record: events logged in order,
// reconvergence observed and bounded by the RIP timeout machinery, and
// traffic lost during the blackout accounted for.
func TestCrashRecoveryMeasured(t *testing.T) {
	nw := recoveryNet(1)
	nw.RunFor(15 * time.Second) // converge
	floodUDP(t, nw, 50*time.Millisecond, 1200)

	sched := fault.MustParse("crash", "10s crash gwB\n40s restore gwB\n")
	in := fault.New(nw, sched)
	arm(t, in)
	nw.RunFor(70 * time.Second)

	evs := in.Events()
	if len(evs) != 2 {
		t.Fatalf("logged %d events, want 2", len(evs))
	}
	if evs[0].Op != fault.OpCrash || evs[1].Op != fault.OpRestore {
		t.Fatalf("wrong ops: %+v", evs)
	}
	for i, ev := range evs {
		if !ev.Reconverged {
			t.Errorf("event %d (%s %s) never reconverged", i, ev.Op, ev.Target)
			continue
		}
		// rip.FastConfig: RouteTimeout 7s + GC + propagation; 20s is generous,
		// and instant reconvergence would mean the watch measured nothing.
		if ev.ReconvergeAfter <= 0 || ev.ReconvergeAfter > 20*time.Second {
			t.Errorf("event %d reconverged in %s, want (0, 20s]", i, ev.ReconvergeAfter)
		}
	}
	if evs[1].LostInWindow == 0 {
		t.Error("blackout window lost no frames despite a UDP flood through the dead gateway")
	}

	ms := in.Metrics()
	byName := map[string]float64{}
	for _, m := range ms {
		if _, dup := byName[m.Name]; dup {
			t.Errorf("duplicate metric %q", m.Name)
		}
		byName[m.Name] = m.Value
	}
	if byName["blackout_lost_frames"] != float64(evs[1].LostInWindow) {
		t.Errorf("blackout_lost_frames %v != restore window %d", byName["blackout_lost_frames"], evs[1].LostInWindow)
	}
	if byName["events_injected"] != 2 {
		t.Errorf("events_injected = %v, want 2", byName["events_injected"])
	}
	if byName["reconverge_mean_s"] <= 0 {
		t.Errorf("reconverge_mean_s = %v, want > 0", byName["reconverge_mean_s"])
	}
	if byName["blackout_lost_frames"] <= 0 {
		t.Errorf("blackout_lost_frames = %v, want > 0", byName["blackout_lost_frames"])
	}
}

// TestCutHealMeasuresMediumLoss checks the cut/heal loss window against
// the medium's own counter.
func TestCutHealMeasuresMediumLoss(t *testing.T) {
	nw := recoveryNet(2)
	nw.RunFor(15 * time.Second)
	floodUDP(t, nw, 50*time.Millisecond, 800)

	in := fault.New(nw, fault.MustParse("cut", "5s cut lanB\n20s heal lanB\n"))
	arm(t, in)
	nw.RunFor(45 * time.Second)

	evs := in.Events()
	if len(evs) != 2 || evs[1].Op != fault.OpHeal {
		t.Fatalf("unexpected events: %+v", evs)
	}
	if evs[1].LostInWindow == 0 {
		t.Error("cut lanB for 15s under flood lost nothing")
	}
	if got := nw.Medium("lanB").LostWhileDown(); got != evs[1].LostInWindow {
		t.Errorf("window %d != medium counter %d", evs[1].LostInWindow, got)
	}
}

// TestIfDownReconvergesByPropagation pins the satellite bugfix: routes
// over an interface that goes down are poisoned immediately and pushed
// by a triggered update, so the lanB side re-routes long before
// RouteTimeout would have fired.
func TestIfDownReconvergesByPropagation(t *testing.T) {
	nw := recoveryNet(3)
	nw.RunFor(15 * time.Second)

	// gwB interface 1 is its n1 trunk (ifaces: lanB=0, n1=1, n2=2).
	in := fault.New(nw, fault.MustParse("ifdown", "5s ifdown gwB 1\n"))
	arm(t, in)
	nw.RunFor(30 * time.Second)

	evs := in.Events()
	if len(evs) != 1 || !evs[0].Reconverged {
		t.Fatalf("ifdown event not reconverged: %+v", evs)
	}
	// gwB itself poisons instantly and its triggered update reaches the
	// lanB/n2 side within ~TriggeredDelay. gwA — the far end of the cut
	// trunk — cannot hear it and still needs RouteTimeout (7s), so full
	// reconvergence sits between the two bounds; without the immediate
	// poisoning it would take gwB its own RouteTimeout as well.
	if evs[0].ReconvergeAfter > 15*time.Second {
		t.Errorf("reconverged in %s, want <= 15s", evs[0].ReconvergeAfter)
	}
}

// TestInjectorDeterminism runs the same seed and schedule twice and
// demands identical event logs and metrics.
func TestInjectorDeterminism(t *testing.T) {
	run := func() ([]fault.Event, []fault.Metric) {
		nw := recoveryNet(11)
		nw.RunFor(15 * time.Second)
		floodUDP(t, nw, 40*time.Millisecond, 2000)
		sched, ok := fault.Preset("mixed")
		if !ok {
			t.Fatal("no mixed preset")
		}
		in := fault.New(nw, sched)
		arm(t, in)
		nw.RunFor(150 * time.Second)
		return in.Events(), in.Metrics()
	}
	e1, m1 := run()
	e2, m2 := run()
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("event logs differ:\n%+v\nvs\n%+v", e1, e2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("metrics differ:\n%+v\nvs\n%+v", m1, m2)
	}
}

// TestCompoundFailureWatchedOnce pins the compound-event accounting
// fix: a simultaneous double-cut is one failure, so it gets one watched
// event that reconverges — before the fix the second cut superseded the
// first cut's watch and the log always carried a spurious
// unreconverged event.
func TestCompoundFailureWatchedOnce(t *testing.T) {
	nw := recoveryNet(5)
	nw.RunFor(15 * time.Second)

	// Both trunks out of lanA at the same instant: a true partition.
	in := fault.New(nw, fault.MustParse("doublecut", "10s cut n1\n10s cut n4\n"))
	arm(t, in)
	nw.RunFor(40 * time.Second)

	evs := in.Events()
	if len(evs) != 2 {
		t.Fatalf("logged %d events, want 2", len(evs))
	}
	if !evs[0].Watched || evs[1].Watched {
		t.Fatalf("watch marks wrong: first %v second %v, want first only", evs[0].Watched, evs[1].Watched)
	}
	if !evs[0].Reconverged {
		t.Fatal("compound cut never reconverged: each side should settle for its own component")
	}
	if !evs[0].Partitioned {
		t.Fatal("double-cut severed lanA but the event is not marked Partitioned")
	}

	byName := metricsByName(t, in)
	if byName["events_injected"] != 2 {
		t.Errorf("events_injected = %v, want 2", byName["events_injected"])
	}
	if byName["events_watched"] != 1 {
		t.Errorf("events_watched = %v, want 1", byName["events_watched"])
	}
	if byName["events_reconverged"] != 1 {
		t.Errorf("events_reconverged = %v, want 1", byName["events_reconverged"])
	}
	if byName["events_unreconverged"] != 0 {
		t.Errorf("events_unreconverged = %v, want 0 — the old superseded-watch miscount", byName["events_unreconverged"])
	}
	if byName["events_partitioned"] != 1 {
		t.Errorf("events_partitioned = %v, want 1", byName["events_partitioned"])
	}
}

// TestPartitionOutcomeDistinguished pins the partition-aware oracle: a
// permanent partition must reconverge against the post-failure graph
// (each side settling for what it can still reach, well before the
// heal), flagged Partitioned — not inflate the reconvergence metrics as
// unreconverged the way the all-prefixes oracle did.
func TestPartitionOutcomeDistinguished(t *testing.T) {
	nw := recoveryNet(6)
	nw.RunFor(15 * time.Second)

	sched, ok := fault.Preset("partition") // cuts at 10s, heals at 35s
	if !ok {
		t.Fatal("partition preset missing")
	}
	in := fault.New(nw, sched)
	arm(t, in)
	nw.RunFor(70 * time.Second)

	evs := in.Events()
	if len(evs) != 4 {
		t.Fatalf("logged %d events, want 4", len(evs))
	}
	cut, heal := evs[0], evs[2]
	if !cut.Watched || !heal.Watched {
		t.Fatalf("group leaders not watched: %+v", evs)
	}
	if !cut.Partitioned {
		t.Fatal("cut group not marked Partitioned")
	}
	if heal.Partitioned {
		t.Fatal("heal group marked Partitioned after the topology rejoined")
	}
	if !cut.Reconverged {
		t.Fatal("partitioned topology never reconverged — oracle still expects unreachable prefixes")
	}
	// The sides must settle before the heal fires at +25s; the watch
	// would otherwise have been superseded, not reconverged.
	if cut.ReconvergeAfter >= 25*time.Second {
		t.Errorf("cut group reconverged in %s, want < 25s (before heal)", cut.ReconvergeAfter)
	}
	if !heal.Reconverged {
		t.Fatal("heal never reconverged")
	}

	byName := metricsByName(t, in)
	if byName["events_unreconverged"] != 0 {
		t.Errorf("events_unreconverged = %v, want 0", byName["events_unreconverged"])
	}
	if byName["events_partitioned"] != 1 {
		t.Errorf("events_partitioned = %v, want 1 (the cut group only)", byName["events_partitioned"])
	}
}

// TestHopLimitLoopAccounting pins the loop-exit metric: on a 5-net line
// the far prefix takes 4 forwarding-walk iterations, so a 2-hop oracle
// budget exhausts — which must surface as route_loop_exits and an
// unreconverged watch, not read identically to a dead route. The same
// scenario under the default budget reconverges instantly.
func TestHopLimitLoopAccounting(t *testing.T) {
	build := func() *core.Network {
		nw := core.New(9)
		cfg := phys.Config{BitsPerSec: 1_544_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 64}
		for i := 0; i <= 4; i++ {
			nw.AddNet(fmt.Sprintf("n%d", i), fmt.Sprintf("10.9.%d.0/24", i), core.P2P, cfg)
		}
		for i := 0; i < 4; i++ {
			nw.AddGateway(fmt.Sprintf("g%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		}
		nw.EnableRIP(rip.FastConfig())
		nw.RunFor(15 * time.Second) // converge
		return nw
	}
	// A storm changes no topology, so the watch it opens sees an
	// already-converged line: the only question is the walk budget.
	sched := fault.MustParse("storm", "5s storm n2 0.05\n")

	nw := build()
	in := fault.New(nw, sched)
	arm(t, in)
	nw.RunFor(10 * time.Second)
	if evs := in.Events(); !evs[0].Reconverged {
		t.Fatal("default hop budget: converged line did not reconverge")
	}
	if v := metricsByName(t, in)["route_loop_exits"]; v != 0 {
		t.Fatalf("default hop budget counted %v loop exits, want 0", v)
	}

	nw = build()
	in = fault.New(nw, sched)
	in.SetHopLimit(2)
	arm(t, in)
	nw.RunFor(10 * time.Second)
	if evs := in.Events(); evs[0].Reconverged {
		t.Fatal("2-hop budget: oracle claimed reconvergence over a 4-hop path")
	}
	byName := metricsByName(t, in)
	if byName["route_loop_exits"] == 0 {
		t.Error("budget exhaustion not counted in route_loop_exits")
	}
	if byName["events_unreconverged"] != 1 {
		t.Errorf("events_unreconverged = %v, want 1", byName["events_unreconverged"])
	}
}

// arm arms the injector, failing the test on a schedule it refuses.
func arm(t *testing.T, in *fault.Injector) {
	t.Helper()
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
}

// metricsByName collects injector metrics into a map, failing on
// duplicate names.
func metricsByName(t *testing.T, in *fault.Injector) map[string]float64 {
	t.Helper()
	byName := map[string]float64{}
	for _, m := range in.Metrics() {
		if _, dup := byName[m.Name]; dup {
			t.Errorf("duplicate metric %q", m.Name)
		}
		byName[m.Name] = m.Value
	}
	return byName
}

// TestCrashRestartSoak cycles a gateway through crash/restart while a
// TCP transfer pushes pooled buffers through it. Under -tags pooldebug
// this is the leak detector for the teardown path: a frame freed twice
// or a poisoned buffer reused panics the run.
func TestCrashRestartSoak(t *testing.T) {
	nw := recoveryNet(4)
	nw.RunFor(15 * time.Second)

	var received int
	nw.TCP("h2").Listen(5001, tcp.Options{}, func(c *tcp.Conn) {
		c.OnData(func(b []byte) { received += len(b) })
	})
	conn, err := nw.TCP("h1").Dial(tcp.Endpoint{Addr: nw.Addr("h2"), Port: 5001}, tcp.Options{SendBufferSize: 65535})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4_000_000)
	rest := data
	push := func() {
		for len(rest) > 0 {
			n, err := conn.Write(rest)
			if n == 0 || err != nil {
				return
			}
			rest = rest[n:]
		}
	}
	conn.OnEstablished(push)
	conn.OnWriteSpace(push)

	// Ten crash/restart cycles, 4s down / 6s up, against both backbone
	// gateways alternately.
	text := ""
	for i := 0; i < 10; i++ {
		gw := "gwB"
		if i%2 == 1 {
			gw = "gwC"
		}
		base := time.Duration(5+10*i) * time.Second
		text += base.String() + " crash " + gw + "\n"
		text += (base + 4*time.Second).String() + " restore " + gw + "\n"
	}
	in := fault.New(nw, fault.MustParse("soak", text))
	arm(t, in)
	nw.RunFor(130 * time.Second)

	if got := len(in.Events()); got != 20 {
		t.Fatalf("fired %d events, want 20", got)
	}
	if received == 0 {
		t.Fatal("no TCP data made it through the soak")
	}
	// The reassembler and queues of the crashed gateways must be empty:
	// crash teardown flushed them rather than stranding pooled buffers.
	for _, gw := range []string{"gwB", "gwC"} {
		if p := nw.Node(gw).Reassembler().Pending(); p != 0 {
			t.Errorf("%s still holds %d reassembly groups", gw, p)
		}
	}
}

// TestPartitionHealTransferIntegrity partitions lanA from the rest of
// the internet mid-transfer (both trunks out of gwA cut), heals it, and
// verifies the TCP byte stream arrives complete and uncorrupted —
// endpoint-only state carries the conversation across the outage.
func TestPartitionHealTransferIntegrity(t *testing.T) {
	const nbytes = 1_000_000
	nw := recoveryNet(3)
	nw.RunFor(15 * time.Second)

	sched, ok := fault.Preset("partition")
	if !ok {
		t.Fatal("partition preset missing")
	}
	in := fault.New(nw, sched)
	arm(t, in)

	pattern := func(i int) byte { return byte(i*13 + i>>8) }
	received, corrupt := 0, -1
	opts := tcp.Options{SendBufferSize: 65535}
	nw.TCP("h2").Listen(5012, opts, func(c *tcp.Conn) {
		c.OnData(func(b []byte) {
			for _, by := range b {
				if by != pattern(received) && corrupt < 0 {
					corrupt = received
				}
				received++
			}
		})
	})
	conn, err := nw.TCP("h1").Dial(tcp.Endpoint{Addr: nw.Addr("h2"), Port: 5012}, opts)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, nbytes)
	for i := range data {
		data[i] = pattern(i)
	}
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

	nw.RunFor(3 * time.Minute)
	if corrupt >= 0 {
		t.Fatalf("corrupted byte at offset %d", corrupt)
	}
	if received != nbytes {
		t.Fatalf("received %d of %d bytes", received, nbytes)
	}
	evs := in.Events()
	if len(evs) != 4 {
		t.Fatalf("fired %d events, want 4", len(evs))
	}
	// The cuts must actually have blacked the transfer out: the closed
	// windows swallowed frames.
	if lostFrames(in) == 0 {
		t.Fatal("partition lost no frames — transfer was never interrupted")
	}
}

// lostFrames returns the frames lost across every closed blackout window.
func lostFrames(in *fault.Injector) float64 {
	for _, m := range in.Metrics() {
		if m.Name == "blackout_lost_frames" {
			return m.Value
		}
	}
	return 0
}
