package exp

import (
	"fmt"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/phys"
	"darpanet/internal/sim"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
)

// RunE6 measures the paper's sixth goal from its dark side: attaching a
// host is cheap precisely because the host implements the hard parts, so
// "a poorly implemented host can ruin the network" — here a TCP with a
// fixed short RTO and no exponential backoff, sharing a slow trunk with a
// well-behaved victim.
func RunE6(seed int64) Result {
	build := func() *core.Network {
		nw := core.New(seed)
		lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 64}
		trunk := phys.Config{BitsPerSec: 256_000, Delay: 20 * time.Millisecond, MTU: 1500, QueueLimit: 20}
		nw.AddNet("lanA", "10.1.0.0/24", core.LAN, lan)
		nw.AddNet("lanB", "10.2.0.0/24", core.LAN, lan)
		nw.AddNet("trunk", "10.9.0.0/24", core.P2P, trunk)
		nw.AddHost("victim", "lanA")
		nw.AddHost("other", "lanA")
		nw.AddHost("sink", "lanB")
		nw.AddGateway("g1", "lanA", "trunk")
		nw.AddGateway("g2", "trunk", "lanB")
		nw.InstallStaticRoutes()
		return nw
	}

	good := tcp.Options{SendBufferSize: 65535}
	naive := tcp.Options{
		SendBufferSize: 65535,
		FixedRTO:       150 * time.Millisecond, // shorter than the loaded RTT
		NoBackoff:      true,
		Congestion:     tcp.CCNaive,
		GoBackN:        true, // timeout => re-blast the whole window
	}

	// Big enough that no transfer finishes inside the window: both
	// sides contend for the trunk throughout.
	const nbytes = 4_000_000
	const window = 90 * time.Second

	type row struct {
		partner     string
		victimRate  float64
		partnerRetr string
		drops       uint64
		k           *sim.Kernel
	}
	run := func(partnerOpts tcp.Options, label string) row {
		nw := build()
		vic := StartBulkTCP(nw, "victim", "sink", 5001, nbytes, good)
		par := StartBulkTCP(nw, "other", "sink", 5002, nbytes, partnerOpts)
		nw.RunFor(window)
		link := nw.Medium("trunk").(*phys.P2P)
		st := par.Conn.Stats()
		retr := stats.Pct(st.BytesRetrans, st.BytesSent+st.BytesRetrans)
		return row{
			partner:     label,
			victimRate:  stats.Throughput(uint64(vic.Received), vic.ElapsedToDoneOr(window)),
			partnerRetr: retr,
			drops:       link.Drops,
			k:           nw.Kernel(),
		}
	}

	alone, aloneK := func() (float64, *sim.Kernel) {
		nw := build()
		vic := StartBulkTCP(nw, "victim", "sink", 5001, nbytes, good)
		nw.RunFor(window)
		return stats.Throughput(uint64(vic.Received), vic.ElapsedToDoneOr(window)), nw.Kernel()
	}()

	withGood := run(good, "well-behaved")
	withNaive := run(naive, "naive (fixed 150ms RTO, no backoff, no CC)")

	table := stats.Table{Header: []string{
		"victim shares 256 kb/s trunk with", "victim goodput", "partner retrans ratio", "trunk queue drops",
	}}
	table.AddRow("nobody (baseline)", stats.HumanRate(alone), "-", "-")
	table.AddRow(withGood.partner, stats.HumanRate(withGood.victimRate), withGood.partnerRetr, fmt.Sprint(withGood.drops))
	table.AddRow(withNaive.partner, stats.HumanRate(withNaive.victimRate), withNaive.partnerRetr, fmt.Sprint(withNaive.drops))

	res := Result{
		Table: table,
		Notes: []string{
			"host attachment is cheap because reliability lives in the host — so nothing stops a bad host implementation from retransmitting into congestion and taking the victim's bandwidth with it.",
		},
	}
	res.AddMetric("victim_alone_goodput", "b/s", alone)
	res.AddMetric("victim_with_good_goodput", "b/s", withGood.victimRate)
	res.AddMetric("victim_with_naive_goodput", "b/s", withNaive.victimRate)
	res.AddMetric("good_partner_drops", "", float64(withGood.drops))
	res.AddMetric("naive_partner_drops", "", float64(withNaive.drops))
	res.AddCounters("alone", aloneK)
	res.AddCounters("with_good", withGood.k)
	res.AddCounters("with_naive", withNaive.k)
	return res
}

// RunE7 measures the seventh (and least met) goal: accountability. The
// gateway counts datagrams for free, but attributing them to accountable
// flows needs per-flow state — and a capped flow table silently loses
// attribution, exactly the weakness the paper concedes.
func RunE7(seed int64) Result {
	build := func(limit int) (*core.Network, func() (uint64, uint64, int)) {
		nw := core.New(seed)
		lan := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500, QueueLimit: 256}
		nw.AddNet("lanA", "10.1.0.0/24", core.LAN, lan)
		nw.AddNet("lanB", "10.2.0.0/24", core.LAN, lan)
		for i := 0; i < 12; i++ {
			nw.AddHost(fmt.Sprintf("src%d", i), "lanA")
		}
		nw.AddHost("sink", "lanB")
		nw.AddGateway("gw", "lanA", "lanB")
		nw.InstallStaticRoutes()
		acct := nw.Node("gw").EnableAccounting(limit)
		// 12 sources × 3 protocols = 36 flows.
		for i := 0; i < 12; i++ {
			src := fmt.Sprintf("src%d", i)
			StartBulkTCP(nw, src, "sink", uint16(6000+i), 20_000, tcp.Options{})
			runUDPQueries(nw, src, "sink", uint16(7000+i), 20, 50*time.Millisecond, 64, 0)
			nw.Node(src).Ping(nw.Addr("sink"), 10, 100*time.Millisecond, func(uint16, time.Duration) {})
		}
		return nw, func() (uint64, uint64, int) {
			return acct.TotalPackets, acct.UnattributedPackets, acct.Flows()
		}
	}

	table := stats.Table{Header: []string{
		"gateway accounting", "state entries", "packets seen", "attributed to a flow",
	}}
	res := Result{
		Notes: []string{
			"counting packets is trivial; attributing them to accountable conversations requires per-flow gateway state proportional to the traffic mix — state the architecture was designed not to keep.",
		},
	}
	for _, limit := range []int{0, 36, 8, 1} {
		nw, snap := build(limit)
		nw.RunFor(time.Minute)
		total, unattr, flows := snap()
		label := "per-flow, unlimited table"
		if limit == 1 {
			label = "datagram counters only (1 slot)"
		} else if limit > 0 {
			label = fmt.Sprintf("per-flow, table capped at %d", limit)
		}
		table.AddRow(label, fmt.Sprint(flows), fmt.Sprint(total), stats.Pct(total-unattr, total))
		res.AddMetric(fmt.Sprintf("attributed_limit%d", limit), "%", 100*float64(total-unattr)/float64(max(total, 1)))
		res.AddMetric(fmt.Sprintf("flows_limit%d", limit), "", float64(flows))
		res.AddCounters(fmt.Sprintf("limit%d", limit), nw.Kernel())
	}

	res.Table = table
	return res
}
