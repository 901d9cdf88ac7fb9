#!/bin/sh
# Interleaved A/B of the repository benchmark (perfbench/): a base revision
# against the working tree, on one workload and seed.
#
#   scripts/perfbench-ab.sh BASE_REV WORKLOAD SEED PAIRS
#
# The base revision is exported with `git archive` into a temporary
# directory. perfbench is built once in each tree, then PAIRS pairs of
# untraced runs of BENCHMARK.json's `run_seconds` alternate: the base runs
# first in odd pairs and the working tree first in even ones, so a slow
# spell of the host falls on both sides. Every run prints its batch (or
# pass) count and the six end-to-end metrics; at the end each side prints
# the median and the first and third quartiles of each metric, followed by
# the per-pair ops_per_s ratios (working tree over base).
#
# Example: scripts/perfbench-ab.sh HEAD~1 evset-sweep 1 8
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 BASE_REV WORKLOAD SEED PAIRS" >&2
    exit 2
fi
base_rev=$1 workload=$2 seed=$3 pairs=$4
case $pairs in
    '' | *[!0-9]* | 0) echo "PAIRS must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac

repo=$(git rev-parse --show-toplevel)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$repo/BENCHMARK.json")
metrics="ops_per_s sim_ms_per_s op_p50_ms setup_s peak_rss_mb success_rate"

work=$(mktemp -d "${TMPDIR:-/tmp}/perfbench-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
mkdir "$work/base"
git -C "$repo" archive "$base_rev" | tar -x -C "$work/base"

for tree in "$work/base" "$repo"; do
    echo "building perfbench in $tree" >&2
    cargo build --release --quiet --offline --manifest-path "$tree/perfbench/Cargo.toml"
done

# One run of SIDE; appends "SIDE PAIR METRIC VALUE" lines to the results.
run() {
    side=$1 pair=$2
    if [ "$side" = base ]; then tree=$work/base; else tree=$repo; fi
    out=$work/run-$side-$pair.txt
    "$tree/perfbench/target/release/llc-perfbench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$out"
    awk -v side="$side" -v pair="$pair" -v metrics="$metrics" '
        /^(batches|passes): / { count = $2 }
        /^\{"correct"/ { last = $0 }
        END {
            n = split(metrics, names, " ")
            line = sprintf("pair %d %-6s %s=%s", pair, side, "runs", count)
            for (i = 1; i <= n; i++) {
                key = "\"" names[i] "\": {\"value\": "
                at = index(last, key)
                if (at == 0) { print "no " names[i] " in the result line" > "/dev/stderr"; exit 1 }
                rest = substr(last, at + length(key))
                value = substr(rest, 1, match(rest, /[,}]/) - 1)
                line = line sprintf(" %s=%s", names[i], value)
                print side, pair, names[i], value >> results
            }
            print line
        }' results="$work/results" "$out"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"; run change "$i"
    else
        run change "$i"; run base "$i"
    fi
    i=$((i + 1))
done

awk -v metrics="$metrics" '
    # Linear-interpolation quantile of the sorted values v[1..n].
    function quantile(v, n, q,    pos, lo) {
        pos = 1 + (n - 1) * q
        lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    function summarise(side, name,    n, v, i, j, t) {
        n = count[side, name]
        for (i = 1; i <= n; i++) v[i] = value[side, name, i]
        for (i = 2; i <= n; i++) {
            t = v[i]
            for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
        printf "  %-13s median %.6g  q1 %.6g  q3 %.6g\n", name, quantile(v, n, 0.5), \
            quantile(v, n, 0.25), quantile(v, n, 0.75)
    }
    {
        side = $1; pair = $2; name = $3
        value[side, name, ++count[side, name]] = $4
        if (name == "ops_per_s") ops[side, pair] = $4
        if (pair > pairs) pairs = pair
    }
    END {
        n = split(metrics, names, " ")
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "base" : "change"
            print side ":"
            for (i = 1; i <= n; i++) summarise(side, names[i])
        }
        printf "ops_per_s ratio (change / base) per pair:"
        for (p = 1; p <= pairs; p++) printf " %.3f", ops["change", p] / ops["base", p]
        printf "\n"
    }' "$work/results"
