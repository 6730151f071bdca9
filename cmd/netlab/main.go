// Command netlab builds and drives darpanet internetworks from a small
// scenario script, read from a file or stdin. It exists so topologies can
// be explored without writing Go.
//
// Usage:
//
//	netlab [-seed N] [script.nl]
//
// Script language (one command per line, '#' comments):
//
//	net <name> <prefix> <lan|p2p|radio> [rate=<bps>] [delay=<dur>] [mtu=<n>] [loss=<p>] [queue=<n>]
//	host <name> <net> [<net>...]
//	gateway <name> <net> [<net>...]
//	static                      # install oracle routes
//	rip                         # start distance-vector routing everywhere
//	priority <node>             # ToS priority queueing at a gateway
//	run <duration>              # advance simulated time (e.g. 10s, 500ms)
//	ping <from> <to> <count>    # echo probes, printed as they return
//	transfer <from> <to> <bytes> <port>   # start a TCP bulk transfer
//	crash <node> | restore <node>
//	cut <net> | uncut <net>
//	trace <from> <to>           # TTL-walk the path (traceroute)
//	tap <node>                  # start capturing datagrams at a node
//	dump <node>                 # print and clear a node's capture
//	routes <node>               # dump a routing table
//	stats <node>                # dump IP counters
//	transfers                   # report all transfers' progress
//	experiment <id>             # run one experiment at seed 1988, print its table
//
// Example:
//
//	net lanA 10.1.0.0/24 lan rate=10000000 delay=1ms
//	net lanB 10.2.0.0/24 lan rate=10000000 delay=1ms
//	host a lanA
//	host b lanB
//	gateway gw lanA lanB
//	static
//	ping a b 3
//	run 2s
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/exp"
	"darpanet/internal/phys"
	"darpanet/internal/rip"
	"darpanet/internal/sim"
	"darpanet/internal/spec"
	"darpanet/internal/stack"
	"darpanet/internal/stats"
	"darpanet/internal/tcp"
	"darpanet/internal/trace"
	"darpanet/internal/workload"
)

type lab struct {
	nw        *core.Network
	out       io.Writer
	transfers []namedTransfer // in start order
	taps      map[string]*trace.Buffer
}

type namedTransfer struct {
	name string
	*workload.Flow
}

func main() {
	seed := int64(1)
	args := os.Args[1:]
	if len(args) >= 2 && args[0] == "-seed" {
		v, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad seed %q", args[1]))
		}
		seed = v
		args = args[2:]
	}
	in := os.Stdin
	if len(args) >= 1 {
		f, err := os.Open(args[0])
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	if err := run(seed, in, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "netlab: %v\n", err)
	os.Exit(1)
}

// run executes the script read from in on a fresh network, printing to
// out, and stops at the first line that fails.
func run(seed int64, in io.Reader, out io.Writer) error {
	l := &lab{nw: core.New(seed), out: out, taps: make(map[string]*trace.Buffer)}
	sc := bufio.NewScanner(in)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := l.exec(line); err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %v", err)
	}
	return nil
}

// fail abandons the current line; exec turns it, like a panic out of
// core for a name the script never declared, into the line's error.
func (l *lab) fail(format string, args ...any) { panic(fmt.Sprintf(format, args...)) }

func (l *lab) exec(line string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "net":
		l.cmdNet(args)
	case "host", "gateway":
		if len(args) < 2 {
			l.fail("%s needs a name and at least one net", cmd)
		}
		if cmd == "host" {
			l.nw.AddHost(args[0], args[1:]...)
		} else {
			l.nw.AddGateway(args[0], args[1:]...)
		}
	case "static":
		l.nw.InstallStaticRoutes()
	case "rip":
		l.nw.EnableRIP(rip.FastConfig())
	case "priority":
		l.need(args, 1, "priority <node>")
		l.nw.EnablePriorityQueueing(args[0], 32)
	case "run":
		l.need(args, 1, "run <duration>")
		d, err := time.ParseDuration(args[0])
		if err != nil {
			l.fail("bad duration %q", args[0])
		}
		l.nw.RunFor(d)
		fmt.Fprintf(l.out, "t=%s\n", l.nw.Now())
	case "ping":
		l.need(args, 3, "ping <from> <to> <count>")
		count := l.number("count", args[2], 1, 1<<16-1)
		from := args[0]
		l.nw.Node(from).Ping(l.nw.Addr(args[1]), count, 200*time.Millisecond,
			func(seq uint16, rtt sim.Duration) {
				fmt.Fprintf(l.out, "%s: reply from %s seq=%d rtt=%.2fms\n", from, args[1], seq, float64(rtt)/1e6)
			})
	case "transfer":
		l.need(args, 4, "transfer <from> <to> <bytes> <port>")
		nbytes, port := l.number("bytes", args[2], 0, 1<<30), l.number("port", args[3], 1, 1<<16-1)
		l.startTransfer(args[0], args[1], nbytes, uint16(port))
	case "crash":
		l.need(args, 1, "crash <node>")
		l.nw.CrashNode(args[0])
		fmt.Fprintf(l.out, "%s crashed\n", args[0])
	case "restore":
		l.need(args, 1, "restore <node>")
		l.nw.RestoreNode(args[0])
		fmt.Fprintf(l.out, "%s restored\n", args[0])
	case "cut":
		l.need(args, 1, "cut <net>")
		l.nw.SetNetDown(args[0], true)
	case "uncut":
		l.need(args, 1, "uncut <net>")
		l.nw.SetNetDown(args[0], false)
	case "tap":
		l.need(args, 1, "tap <node>")
		name := args[0]
		buf := &trace.Buffer{Limit: 200}
		l.taps[name] = buf
		k := l.nw.Kernel()
		l.nw.Node(name).SetPacketTap(func(send bool, iface string, raw []byte) {
			dir := trace.Recv
			if send {
				dir = trace.Send
			}
			buf.Add(trace.Event{At: k.Now(), Node: name, Dir: dir, Iface: iface, Raw: append([]byte(nil), raw...)})
		})
	case "dump":
		l.need(args, 1, "dump <node>")
		if buf, ok := l.taps[args[0]]; ok {
			fmt.Fprintf(l.out, "%s", buf.String())
			buf.Events = nil
		} else {
			l.fail("no tap on %q (use: tap %s)", args[0], args[0])
		}
	case "trace":
		l.need(args, 2, "trace <from> <to>")
		from := args[0]
		l.nw.Node(from).Traceroute(l.nw.Addr(args[1]), 30, time.Second, func(hops []stack.Hop) {
			fmt.Fprintf(l.out, "trace %s -> %s:\n", from, args[1])
			for i, h := range hops {
				if h.Addr.IsZero() {
					fmt.Fprintf(l.out, "  %2d  *\n", i+1)
					continue
				}
				mark := ""
				if h.Reached {
					mark = "  (destination)"
				}
				fmt.Fprintf(l.out, "  %2d  %-15s %.2fms%s\n", i+1, h.Addr, float64(h.RTT)/1e6, mark)
			}
		})
	case "routes":
		l.need(args, 1, "routes <node>")
		fmt.Fprintf(l.out, "routes at %s:\n%s", args[0], l.nw.Node(args[0]).Table.String())
	case "stats":
		l.need(args, 1, "stats <node>")
		s := l.nw.Node(args[0]).Stats()
		fmt.Fprintf(l.out, "%s: in=%d delivered=%d forwarded=%d out=%d noroute=%d ttl=%d frag=%d\n",
			args[0], s.InReceives, s.InDelivers, s.Forwarded, s.OutRequests,
			s.NoRoute, s.TTLDrops, s.FragCreated)
	case "transfers":
		for _, tr := range l.transfers {
			pct := 100 * float64(tr.BytesRx) / float64(tr.Size)
			fmt.Fprintf(l.out, "%s: %s / %s (%.1f%%)\n", tr.name,
				stats.HumanBytes(uint64(tr.BytesRx)), stats.HumanBytes(uint64(tr.Size)), pct)
		}
	case "experiment":
		l.need(args, 1, "experiment <id>")
		e, ok := exp.ByID(strings.ToUpper(args[0]))
		if !ok {
			l.fail("unknown experiment %q", args[0])
		}
		fmt.Fprintf(l.out, "%s\n", e.Run(1988).String())
	default:
		l.fail("unknown command %q", cmd)
	}
	return nil
}

// number reads a command's integer argument in lo..hi.
func (l *lab) number(what, arg string, lo, hi int) int {
	n, err := spec.ParseInt(arg, lo, hi)
	if err != nil {
		l.fail("bad %s %q: %v", what, arg, err)
	}
	return n
}

func (l *lab) need(args []string, n int, usage string) {
	if len(args) < n {
		l.fail("usage: %s", usage)
	}
}

func (l *lab) cmdNet(args []string) {
	if len(args) < 3 {
		l.fail("usage: net <name> <prefix> <kind> [opts]")
	}
	kind, ok := map[string]core.NetKind{"lan": core.LAN, "p2p": core.P2P, "radio": core.Radio}[args[2]]
	if !ok {
		l.fail("unknown net kind %q", args[2])
	}
	cfg := phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}
	opts := spec.Fields{
		spec.Int("rate", &cfg.BitsPerSec),
		spec.Duration("delay", &cfg.Delay),
		spec.Int("mtu", &cfg.MTU),
		spec.Float("loss", &cfg.Loss),
		spec.Int("queue", &cfg.QueueLimit),
	}
	// The binder's terms are comma-separated; a script's are fields.
	if err := opts.Parse(strings.Join(args[3:], ",")); err != nil {
		l.fail("net option %v", err)
	}
	l.nw.AddNet(args[0], args[1], kind, cfg)
}

func (l *lab) startTransfer(from, to string, nbytes int, port uint16) {
	tr := workload.StartBulk(l.nw, from, to, port, nbytes, tcp.Options{SendBufferSize: 65535})
	if tr.Err != nil {
		l.fail("transfer: %v", tr.Err)
	}
	name := fmt.Sprintf("%s->%s:%d", from, to, port)
	l.transfers = append(l.transfers, namedTransfer{name, tr})
	fmt.Fprintf(l.out, "transfer %s started (%s)\n", name, stats.HumanBytes(uint64(nbytes)))
}
