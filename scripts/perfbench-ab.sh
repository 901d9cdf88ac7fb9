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
# pass) count and the end-to-end metrics; at the end each side prints the
# median and the first and third quartiles of each metric, followed by the
# per-pair ops_per_s ratios (working tree over base) and the verdict:
#   - the pairs the working tree won on ops_per_s, out of all pairs run
#     (ties count for neither side);
#   - the ops_per_s median difference next to the base's quartile distance,
#     and whether the gain rule holds: at least nine tenths of the pairs won
#     and a difference above that distance;
#   - for each end-to-end metric, the change of the median against its
#     bound, as a share of the base's median, and whether the working tree
#     is worse than the base by more than the bound. The metrics, which way
#     is better and the bounds come from BENCHMARK.json's `end_to_end`.
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
# One "NAME BETTER BOUND" line per end-to-end metric (only those have a bound).
bounds=$(sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
    "$repo/BENCHMARK.json")
metrics=$(echo "$bounds" | awk '{ printf "%s%s", sep, $1; sep = " " }')

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

awk -v bounds="$bounds" '
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
        median[side, name] = quantile(v, n, 0.5)
        q1[side, name] = quantile(v, n, 0.25)
        q3[side, name] = quantile(v, n, 0.75)
        printf "  %-13s median %.6g  q1 %.6g  q3 %.6g\n", name, median[side, name], \
            q1[side, name], q3[side, name]
    }
    {
        side = $1; pair = $2; name = $3
        value[side, name, ++count[side, name]] = $4
        if (name == "ops_per_s") ops[side, pair] = $4
        if (pair > pairs) pairs = pair
    }
    END {
        n = split(bounds, lines, "\n")
        for (i = 1; i <= n; i++) {
            split(lines[i], f, " ")
            names[i] = f[1]; better[i] = f[2]; bound[i] = f[3]
        }
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "base" : "change"
            print side ":"
            for (i = 1; i <= n; i++) summarise(side, names[i])
        }
        printf "ops_per_s ratio (change / base) per pair:"
        won = 0
        for (p = 1; p <= pairs; p++) {
            printf " %.3f", ops["change", p] / ops["base", p]
            if (ops["change", p] > ops["base", p]) won++
        }
        printf "\n"
        printf "pairs won by the change on ops_per_s: %d of %d\n", won, pairs
        diff = median["change", "ops_per_s"] - median["base", "ops_per_s"]
        spread = q3["base", "ops_per_s"] - q1["base", "ops_per_s"]
        printf "ops_per_s median difference %.6g, base quartile distance %.6g\n", diff, spread
        printf "gain rule (at least 9/10 of pairs won, difference above that distance): %s\n", \
            (won * 10 >= 9 * pairs && diff > spread) ? "met" : "not met"
        print "end-to-end medians, change against base (worse is positive):"
        for (i = 1; i <= n; i++) {
            base = median["base", names[i]]; change = median["change", names[i]]
            if (base == 0) {
                printf "  %-13s base median 0, change %.6g: no relative bound\n", names[i], change
                continue
            }
            worse = (better[i] == "higher" ? base - change : change - base) / base
            printf "  %-13s %+.1f%% (bound %g%%): %s\n", names[i], 100 * worse, 100 * bound[i], \
                (worse > bound[i]) ? "WORSE than its bound" : "within its bound"
        }
    }' "$work/results"
