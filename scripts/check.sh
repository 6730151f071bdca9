#!/usr/bin/env sh
# The verification gate, and its one source of truth: every job in
# .github/workflows/ci.yml runs `scripts/check.sh <leg>` rather than
# spelling a command out a second time.
#
#   scripts/check.sh              every leg in LEGS, in that order
#   scripts/check.sh race fuzz    just those legs
#   scripts/check.sh race-cpu     the slow leg LEGS leaves out
set -eu

cd "$(dirname "$0")/.."

LEGS="static reach staticcheck race race-sim pooldebug smoke-E11 smoke-E12 smoke-E13 fuzz smoke-E5 smoke-E13-T smoke-E14 smoke-E16 smoke-E15 smoke-examples benchsmoke benchguard bench-api help-sync"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# The programs the smoke legs run. The reach leg points these at
# coverage-built binaries and runs the same legs.
experiments_cmd="go run ./cmd/experiments"
netlab_cmd="go run ./cmd/netlab"
interdomain_cmd="go run ./examples/interdomain"

# The CLI exits 1 when any replica fails, so a smoke is more than "it
# printed something".
experiments() { $experiments_cmd "$@" > /dev/null; }

run_leg() {
    case "$1" in
    static)
        go build ./...
        go vet ./...
        test -z "$(gofmt -l .)"
        # The scripts nothing else in the gate runs must at least parse.
        for f in scripts/*.sh; do sh -n "$f"; done
        ;;
    reach)
        # Every non-test function outside bench/ is run by a program, or
        # scripts/reach.allow names it with a reason: a test is not a
        # caller. The programs are built with coverage counters and run
        # on the digest run, the smoke legs, bench's workloads and the
        # surface no smoke leg reaches; a function none of whose blocks
        # ran fails the leg. Blocks, not `covdata func`'s percentages,
        # decide: a body with no statements reads 0.0 % even when it ran.
        reach="$tmpdir/reach"
        mkdir -p "$reach/counters" "$reach/bench-out"
        for p in cmd/experiments cmd/netlab examples/interdomain; do
            go build -cover -coverpkg=./... -o "$reach/${p##*/}" "./$p"
        done
        # bench/ is its own module, built offline as bench/run.sh builds it.
        (cd bench && GOFLAGS=-mod=mod GOPROXY=off go build -cover -coverpkg=darpanet/... -o "$reach/bench" .)
        export GOCOVERDIR="$reach/counters"
        experiments_cmd="$reach/experiments"
        netlab_cmd="$reach/netlab"
        interdomain_cmd="$reach/interdomain"
        experiments -seed 1988
        for leg in smoke-E5 smoke-E11 smoke-E12 smoke-E13 smoke-E13-T smoke-E14 smoke-E15 smoke-examples; do
            run_leg "$leg"
        done
        # What the smoke legs leave out: every netlab command, a drawn
        # fault schedule, the counter tree, on/off sources and the other
        # queue policies and congestion responses.
        $netlab_cmd cmd/netlab/testdata/tour.nl > /dev/null
        experiments -only E11 -scenario faults=random
        experiments -only E1 -metrics
        experiments -only E13 -scenario 'workload=onoff=1;qdisc=red;cc=tahoe'
        experiments -only E13 -scenario 'qdisc=ecn;cc=reno'
        for w in fwd_chain_64b tcp_bulk_hetero collapse_mix scale_sharded_2000gw campaign_mc; do
            "$reach/bench" -workload "$w" -trace 1 -seconds 1 -seed 1988 -out "$reach/bench-out" > /dev/null
        done
        unset GOCOVERDIR
        go tool covdata func -i "$reach/counters" > "$reach/funcs"
        go tool covdata textfmt -i "$reach/counters" -o "$reach/blocks"
        # One stream sorted by file and line: each block follows the
        # function it sits in, so a function is reached when any block
        # after it, before the next function, ran.
        {
            awk '$1 != "total:" { split($1, a, ":"); f = $2; sub(/^\*/, "", f); print a[1], a[2], 0, f }' "$reach/funcs"
            awk 'NR > 1 { split($1, a, ":"); split(a[2], l, "."); print a[1], l[1], 1, $3 }' "$reach/blocks"
        } | sed 's|^darpanet/||' | grep -v '^bench/' | sort -k1,1 -k2,2n -k3,3n | awk '
            $3 == 0 { if (fn != "" && !ran) print fn; fn = $1 " " $4; ran = 0; next }
            $4 > 0 { ran = 1 }
            END { if (fn != "" && !ran) print fn }' | sort > "$reach/unreached"
        # Every file that declares a function is in some program, unless
        # a build tag the programs do not set keeps it out.
        find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' \
            -exec grep -l '^func ' {} + | xargs grep -L '^//go:build' | sed 's|^\./||' | sort > "$reach/files"
        awk -F: '$1 != "total" { print $1 }' "$reach/funcs" | sed 's|^darpanet/||' | sort -u |
            comm -23 "$reach/files" - > "$reach/unlinked"
        # Each allowlist line is "<file> <func> <reason>", the reason one
        # of five; a line that names a function some program runs, or one
        # that is gone, is stale and fails too.
        awk -v unreached="$reach/unreached" '
            BEGIN { while ((getline l < unreached) > 0) { split(l, f, " "); dead[f[1] " " f[2]] = 1 } }
            /^[ \t]*(#|$)/ { next }
            {
                key = $1 " " $2; reason = $0; sub(/^[^ ]+ +[^ ]+ +/, "", reason)
                if (reason !~ /^(error path|debug String|grammar fixed point|test harness|deferred: item [0-9]+)/)
                    print "scripts/reach.allow:" FNR ": bad reason: " reason
                if (!(key in dead)) print "scripts/reach.allow:" FNR ": " key ": no longer unreached; drop the line"
                allowed[key] = 1
            }
            END { for (k in dead) if (!(k in allowed)) print k ": no program runs it" }' scripts/reach.allow > "$reach/report"
        if [ -s "$reach/unlinked" ] || [ -s "$reach/report" ]; then
            echo "check.sh: reach:" >&2
            sed 's/$/: in no program/' "$reach/unlinked" >&2
            sort "$reach/report" >&2
            exit 1
        fi
        ;;
    staticcheck)
        # Pinned: a floating version would let a new check break the gate
        # without a code change. `go run` needs the module proxy; on an
        # offline machine skip with a notice — but never in CI, which is
        # the authority.
        if command -v staticcheck >/dev/null 2>&1; then
            staticcheck ./...
        elif go run honnef.co/go/tools/cmd/staticcheck@2024.1.1 -version >/dev/null 2>&1; then
            go run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...
        elif [ -n "${CI:-}" ]; then
            echo "check.sh: staticcheck unavailable in CI" >&2
            exit 1
        else
            echo "check.sh: staticcheck unavailable offline; skipping (CI runs it)" >&2
        fi
        ;;
    race)
        # The campaign harness and the sharded kernel are the two places
        # real concurrency exists — keep them honest, in shuffled order so
        # no test leans on state an earlier one left behind. The second
        # command names the sharded determinism and delivery tests and the
        # serial-vs-sharded differential tests (tables, wiring, census,
        # fault injection) explicitly, so a schedule or -run pattern
        # change cannot silently drop them from coverage.
        go test -race -shuffle=on ./...
        go test -race -count=1 -run 'TestE16DeterminismAcrossWorkers|TestSharded|TestSerialAndShardedRunsAgree|TestBuildersShareGraphNamesPrefixesMedia|TestCensusAtAnyRegionCount|TestInjectorAtAnyRegionCount' ./internal/exp/ ./internal/topo/ ./internal/fault/
        ;;
    race-sim)
        # The kernel at 1, 2 and 4 CPUs: a 1-core pass proves nothing
        # about ShardGroup, and a multi-core-only runner would hide a
        # serial-path regression.
        go test -race -cpu 1,2,4 -count=3 ./internal/sim/
        ;;
    race-cpu)
        # The whole suite under the race detector at GOMAXPROCS 1, 2 and
        # 4 — three race passes, too slow for LEGS; CI runs it on a
        # schedule and on demand. One race pass of the root package or
        # internal/exp takes nearly four minutes on two vCPUs, so three
        # would overrun go test's default ten-minute binary timeout.
        go test -race -cpu 1,2,4 -timeout 30m ./...
        ;;
    pooldebug)
        go test -tags pooldebug ./...
        # The crash/restart soak must pass with poisoned pooled buffers: a
        # frame leaked (or double-released) by gateway teardown dies
        # loudly here.
        go test -tags pooldebug -count=1 -run 'TestCrashRestartSoak|TestPartitionHealTransferIntegrity' ./internal/fault/
        # So must the byte path: bulk TCP through a fragmenting, lossy
        # gateway, the OnData slice that is poisoned once its callback
        # returns, and a send side that gives back its ring at teardown.
        go test -tags pooldebug -count=1 -run 'TestBulkAcrossFragmentingLossyPathStrandsNothing|TestFinishedSendSideHoldsNoRing|TestOnDataSliceValidOnlyDuringCallback' ./internal/tcp/
        # The one bulk receiver checks every delivered byte against the
        # pattern: a poisoned buffer that reaches OnData counts as
        # mismatched bytes across the same kind of path.
        go test -tags pooldebug -count=1 -run 'TestBulkAcrossFragmentingLossyPathMatchesPattern' ./internal/workload/
        # And a crash on a shared LAN: the flush takes the dead station's
        # frames and leaves the others' queued, none stranded on the way.
        go test -tags pooldebug -count=1 -run 'TestCrashFlushLeavesSharedQueueToTheSurvivors' ./internal/exp/
        ;;
    smoke-E11)
        # The fault-injection recovery experiment end to end through the
        # CLI, as a 2-replica campaign.
        experiments -only E11 -runs 2 -scenario faults=mixed
        ;;
    smoke-E12)
        # A small generated internet through the CLI.
        experiments -only E12 -scenario 'topo=waxman:gw=16'
        ;;
    smoke-E13)
        # The congestion-collapse sweep as a 2-replica campaign, with the
        # workload key exercised.
        experiments -only E13 -runs 2 -scenario 'workload=naive=1,alpha=1.1,min=30000,max=2000000'
        ;;
    fuzz)
        # Each fuzzer first replays every input it has cached; a warm
        # cache of 2000-gateway internets would fill the ten seconds, so
        # the leg starts from the seed corpora alone.
        go clean -fuzzcache
        # Fuzzers, 10s each (go test takes one -fuzz target at a time):
        # five codec round-trips and the four text grammars first.
        go test -run '^$' -fuzz FuzzIPv4HeaderRoundTrip -fuzztime 10s ./internal/ipv4/
        go test -run '^$' -fuzz FuzzTCPSegmentRoundTrip -fuzztime 10s ./internal/tcp/
        go test -run '^$' -fuzz FuzzUDPDatagramRoundTrip -fuzztime 10s ./internal/udp/
        go test -run '^$' -fuzz FuzzRIPMessageRoundTrip -fuzztime 10s ./internal/rip/
        go test -run '^$' -fuzz FuzzNamesMessageRoundTrip -fuzztime 10s ./internal/names/
        # A spec string parses to a fixed point of String or is refused —
        # the three grammars on internal/spec — and a topology that parses
        # small enough to build is addressed inside its own prefixes.
        go test -run '^$' -fuzz FuzzTopoSpec -fuzztime 10s ./internal/topo/
        go test -run '^$' -fuzz FuzzWorkloadSpec -fuzztime 10s ./internal/workload/
        go test -run '^$' -fuzz FuzzPolicySpec -fuzztime 10s ./internal/phys/
        # A fault schedule is refused or renders to text that parses back
        # to the same steps; a cmd/experiments scenario is refused or its
        # String is a fixed point of parse and render.
        go test -run '^$' -fuzz FuzzScheduleParse -fuzztime 10s ./internal/fault/
        go test -run '^$' -fuzz '^FuzzScenario$' -fuzztime 10s ./internal/exp/
        # The differential fuzzers: the checksum against its 16-bit
        # reference loop, route-table operation sequences against the
        # linear scan, the oracle's same-next-hop blocks against a
        # route per prefix, the one-sweep oracle's tables against the
        # two-sweep reference's, the manifest's indexed BFS against the
        # map-based one, the survivability analysis's cut gateways,
        # bridges and 2-cuts against brute-force removal on a name-keyed
        # census, and the interned metrics registry against the
        # path-string one. Their inputs are long; left to minimize each
        # interesting one (60s by default) the workers would spend the
        # ten seconds shrinking the first.
        go test -run '^$' -fuzz FuzzChecksumMatchesReference -fuzztime 10s -fuzzminimizetime 0 ./internal/packet/
        go test -run '^$' -fuzz FuzzRouteTableOps -fuzztime 10s -fuzzminimizetime 0 ./internal/stack/
        go test -run '^$' -fuzz FuzzRouteCover -fuzztime 10s -fuzzminimizetime 0 ./internal/core/
        go test -run '^$' -fuzz FuzzStaticRoutesMatchReference -fuzztime 10s -fuzzminimizetime 0 ./internal/core/
        go test -run '^$' -fuzz FuzzNetHopsMatchesReference -fuzztime 10s -fuzzminimizetime 0 ./internal/topo/
        go test -run '^$' -fuzz FuzzWeakPointsMatchBruteForce -fuzztime 10s -fuzzminimizetime 0 ./internal/survive/
        go test -run '^$' -fuzz FuzzRegistryMatchesPathReference -fuzztime 10s -fuzzminimizetime 0 ./internal/metrics/
        # The stateful fuzzers: a schedule that parses and arms runs on
        # E11's internet under a bulk transfer to the end, with no panic
        # and a frame ledger that closes.
        go test -run '^$' -fuzz FuzzScheduleRuns -fuzztime 10s -fuzzminimizetime 0 ./internal/exp/
        # And a scenario that parses runs E14 — its topo, workload and
        # fracs chains — to the end on a small internet, every cell's
        # ledger closed; a small topo also runs E15, or is refused.
        go test -run '^$' -fuzz FuzzScenarioRuns -fuzztime 10s -fuzzminimizetime 0 ./internal/exp/
        ;;
    smoke-E5)
        # Metrics determinism: the campaign JSON (which embeds the full
        # per-layer counter registry as ctr/ metrics) must be
        # byte-identical no matter how many workers ran the replicas.
        # And E5's claim, every byte delivered at every loss rate, holds
        # on all four replicas.
        experiments -only E5 -runs 4 -parallel 1 -export campaign="$tmpdir/p1.json"
        $experiments_cmd -only E5 -runs 4 -parallel "$(nproc)" -export campaign="$tmpdir/pn.json" > "$tmpdir/pn.out"
        cmp "$tmpdir/p1.json" "$tmpdir/pn.json"
        grep -qx 'claim held in 4/4' "$tmpdir/pn.out"
        ;;
    smoke-E13-T)
        # A 2x2 tournament grid (with the topology axis pinned
        # explicitly), fixed seed, twice: the ranked leaderboard must be
        # byte-identical at any worker count.
        for p in 1 3; do
            experiments -only E13-T -scenario 'topo=transitstub:gw=3,stubs=4,hosts=1,mix=0;qdisc=droptail+ecn;cc=naive+newreno' \
                -runs 2 -seed 1988 -parallel "$p" -export leaderboard="$tmpdir/lb$p.json"
        done
        cmp "$tmpdir/lb1.json" "$tmpdir/lb3.json"
        ;;
    smoke-E14)
        # Targeted-vs-random fault campaigns on a small internet, fixed
        # seed, twice: the survivability frontier must be byte-identical
        # at any worker count.
        for p in 1 3; do
            experiments -only E14 -scenario 'topo=transitstub:gw=3,stubs=2,hosts=1,mix=0;fracs=10,20' \
                -runs 2 -seed 1988 -parallel "$p" -export survive="$tmpdir/sf$p.json"
        done
        cmp "$tmpdir/sf1.json" "$tmpdir/sf3.json"
        ;;
    smoke-E16)
        # The 2000-gateway sharded kernel, serial and at 4 workers: the
        # campaign JSON must be byte-identical at any worker count — the
        # conservative-sync acceptance check. The worker count is a
        # test-only knob (exp.Params.Shards), so a Go test runs both.
        go test -count=1 -run '^TestE16CampaignAtAnyWorkerCount$' ./cmd/experiments/
        ;;
    smoke-E15)
        # Name-based service continuity through a directory crash; the
        # darpanet/names/v1 export must be byte-identical at any -parallel
        # AND any worker count (directory traffic crosses the region
        # seams), the latter checked by a Go test at 1 and 2 workers.
        experiments -only E15 -runs 2 -seed 1988 -parallel 1 -export names="$tmpdir/n-p1.json"
        experiments -only E15 -runs 2 -seed 1988 -parallel 3 -export names="$tmpdir/n-p3.json"
        cmp "$tmpdir/n-p1.json" "$tmpdir/n-p3.json"
        go test -count=1 -run '^TestE15NamesAtAnyWorkerCount$' ./cmd/experiments/
        ;;
    smoke-examples)
        # The runnable examples end to end: the README's netlab script
        # (netlab exits 1 at a line that fails), and the one program
        # that runs EGP, whose pings must cross the three administrations
        # and whose route through the crashed transit border must be
        # withdrawn. A `!`-negated command never stops a `set -e`
        # script, hence the `if`.
        $netlab_cmd examples/quickstart.nl > /dev/null
        $interdomain_cmd > "$tmpdir/interdomain.txt"
        grep -q 'cleanly withdrew' "$tmpdir/interdomain.txt"
        if grep -q 'pings failed' "$tmpdir/interdomain.txt"; then
            echo "check.sh: examples/interdomain: pings failed" >&2
            exit 1
        fi
        ;;
    benchsmoke)
        # Every benchmark still runs (one iteration each); -short keeps
        # the scale curve to its smallest build.
        go test -run '^$' -bench . -benchtime 1x -short ./...
        ;;
    benchguard)
        # The allocation-regression gate over the datagram hot path, the
        # header decode under it, the deep output queue, the fragmenting
        # path, the established TCP byte path and the large-table route
        # lookup.
        scripts/benchguard.sh
        ;;
    bench-api)
        # bench/ is its own module, so `go build ./...` at the root cannot
        # see an API move that breaks the benchmark.
        (cd bench && go vet ./... && go test ./...)
        # An API move can still vet and yet break the benchmark's own
        # build script, which is what the pipeline runs: build once from
        # a clean slate and take one untraced run of the cheapest
        # workload.
        rm -rf .bench_build
        bash bench/run.sh -workload fwd_chain_64b -trace 0 -seed 1988 > /dev/null
        ;;
    help-sync)
        # The lists a reader sees: `cmd/experiments -h` has a line for
        # every scenario key naming every key, shape, kind and name of the
        # grammar its value is written in, and README's flag section names
        # every flag -h prints.
        go test -count=1 -run 'TestHelpSync' ./cmd/experiments/
        ;;
    *)
        echo "check.sh: unknown leg '$1' (legs: $LEGS race-cpu)" >&2
        exit 2
        ;;
    esac
}

[ $# -gt 0 ] || set -- $LEGS
for leg; do
    echo "== check.sh: $leg" >&2
    (set -x; run_leg "$leg")
done
