#!/usr/bin/env sh
# benchpairs: the paired measurement a performance claim rests on
# (bench/README.md § "Landing a change"), for one workload.
#
#   scripts/benchpairs.sh <workload> [pairs=10] [seed=1988] [parent=HEAD~1]
#
# Unpacks the parent commit under .bench_build/ (already ignored), lets
# each tree build its benchmark with its own bench/run.sh, takes <pairs>
# alternating untraced runs — odd pairs parent first, even pairs change
# first — and prints, per end-to-end metric of BENCHMARK.json, each
# side's median and quartiles over the runs, how many pairs the change
# won, and each side's failed operations. "The change" is the working
# tree as it stands. It reads each run's last-line JSON and edits
# nothing under bench/.
#
# The parent is unpacked with `git archive`, not `git worktree`: the
# benchmark is judged on a commit's files in a directory of their own,
# and an archive gives exactly that without leaving an entry in .git.
set -eu

cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/benchpairs.sh <workload> [pairs=10] [seed=1988] [parent=HEAD~1]" >&2
    exit 2
fi
workload=$1
pairs=${2:-10}
seed=${3:-1988}
parent=${4:-HEAD~1}

case "$pairs" in
'' | *[!0-9]* | 0)
    echo "benchpairs: pairs must be a positive integer, not '$pairs'" >&2
    exit 2
    ;;
esac

sha=$(git rev-parse --verify --quiet "$parent^{commit}") || {
    echo "benchpairs: no such commit '$parent'" >&2
    exit 2
}

tree=.bench_build/parent
runs=.bench_build/pairs
if [ "$(cat "$tree/.sha" 2>/dev/null)" != "$sha" ]; then
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$sha" | tar -x -C "$tree"
    echo "$sha" > "$tree/.sha"
fi
rm -rf "$runs"
mkdir -p "$runs"

# run <side> <dir> <pair>: one untraced run; its stdout is kept whole
# and its last line — the contract's JSON object — is what gets read.
run() {
    echo "benchpairs: pair $3/$pairs $1" >&2
    (cd "$2" && bash bench/run.sh -workload "$workload" -trace 0 -seed "$seed") > "$runs/$1.$3.out" || {
        echo "benchpairs: $1 run exited non-zero (pair $3); its output is in $runs/$1.$3.out" >&2
    }
    tail -n 1 "$runs/$1.$3.out" > "$runs/$1.$3.json"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$tree" "$i"
        run change . "$i"
    else
        run change . "$i"
        run parent "$tree" "$i"
    fi
    i=$((i + 1))
done

echo "workload $workload  seed $seed  pairs $pairs  parent $(git rev-parse --short "$sha")  change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+dirty')"

# The metric names and their directions come from the contract, so a
# metric added there shows up here.
awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/  { on = 0 }
    on && /"name"/   { split($0, f, "\""); name = f[4] }
    on && /"better"/ { split($0, f, "\""); print name, f[4] }
' BENCHMARK.json | while read -r metric better; do
    for side in parent change; do
        i=1
        while [ "$i" -le "$pairs" ]; do
            sed -n 's/.*"'"$metric"'":{"value":\([^,}]*\).*/\1/p' "$runs/$side.$i.json" | grep . || echo nan
            i=$((i + 1))
        done > "$runs/$side.$metric"
    done
    paste "$runs/parent.$metric" "$runs/change.$metric" | awk -v metric="$metric" -v better="$better" '
        # Quartiles as bench/stats.go and statistics.quantiles(n=4) take them.
        function cut(s, n, i,    m, j, d) {
            if (n == 1) return s[1]
            m = n + 1; j = int(i * m / 4)
            if (j < 1) j = 1
            if (j > n - 1) j = n - 1
            d = i * m - j * 4
            return (s[j] * (4 - d) + s[j + 1] * d) / 4
        }
        function sorted(src, dst, n,    a, b, t) {
            for (a = 1; a <= n; a++) dst[a] = src[a]
            for (a = 2; a <= n; a++)
                for (b = a; b > 1 && dst[b - 1] > dst[b]; b--) { t = dst[b]; dst[b] = dst[b - 1]; dst[b - 1] = t }
        }
        function med(s, n) { return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2 }
        $1 == "nan" || $2 == "nan" { missing++; next }
        {
            n++; p[n] = $1; c[n] = $2
            if ($1 == $2) ties++
            else if ((better == "lower") == ($2 < $1)) wins++
        }
        END {
            if (n == 0) { printf "%-14s no run reported it\n", metric; exit }
            sorted(p, ps, n); sorted(c, cs, n)
            printf "%-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  change better in %d of %d", metric,
                med(ps, n), cut(ps, n, 1), cut(ps, n, 3), med(cs, n), cut(cs, n, 1), cut(cs, n, 3), wins, n
            if (ties) printf " (%d tied)", ties
            if (missing) printf " (%d pairs missing a value)", missing
            printf "  (%s is better)\n", better
            printf "  parent runs:"; for (a = 1; a <= n; a++) printf " %.6g", p[a]; printf "\n"
            printf "  change runs:"; for (a = 1; a <= n; a++) printf " %.6g", c[a]; printf "\n"
        }'
done

for side in parent change; do
    cat "$runs/$side".*.json | awk -v side="$side" '
        match($0, /"attempted":[0-9]+/) { att += substr($0, RSTART + 12, RLENGTH - 12); ok++ }
        match($0, /"failed":[0-9]+/)    { fail += substr($0, RSTART + 9, RLENGTH - 9) }
        END { printf "%-14s %d failed of %d operations over %d of %d runs reporting\n", side, fail, att, ok, NR }'
done
echo "every run's output: $runs/"
