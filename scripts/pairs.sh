#!/bin/sh
# Alternating parent/change pairs on one benchmark workload: the estimator a
# speed claim in this repository is made with.
#
#   scripts/pairs.sh <parent-sha> <workload> [pairs=10] [seconds=20] [scratch-dir]
#
# Run from the repository root; the change is the working tree. The parent is
# cloned into <scratch-dir>/parent-<sha> and built there once (default
# scratch dir: ${TMPDIR:-/tmp}/bmx-pairs), outside the repository. Pair i
# runs seed SEED+i-1 (SEED defaults to 1) on both sides with --trace 0, the
# parent first in odd pairs and the change first in even ones. Each side's
# result lines are kept in <scratch-dir>/<workload>.<side>.jsonl. The header
# line names the host's online core count. Printed per side: median and
# quartiles of setup_s, ops_per_s and peak_rss_mb, the pairs the change won
# on each, failed ops and how many runs were correct. On a sim
# workload also the median of measured repetitions each side ran (from the
# benchmark's "# <workload>: N measured repetitions" line, kept in
# <scratch-dir>/<workload>.<side>.reps): a faster side keeps more repetition
# records, which is how its peak_rss_mb can rise. And the median and
# quartiles of the blocking-acquire p50 (the benchmark's "# <workload>:
# acquire_p50_us X over N blocking acquires" line, kept in
# <scratch-dir>/<workload>.<side>.acq), so a per-layer shift shows in the
# same pairs as the end-to-end one.
set -eu
if [ $# -lt 2 ]; then
    sed -n '5p' "$0" >&2
    exit 2
fi
sha=$1 workload=$2 pairs=${3:-10} seconds=${4:-20}
scratch=${5:-${TMPDIR:-/tmp}/bmx-pairs}
seed=${SEED:-1}
root=$(pwd)
bin=benchmark/target/release/bmx-benchmark
parent=$scratch/parent-$sha

mkdir -p "$scratch"
if [ ! -d "$parent" ]; then
    git clone -q "$root" "$parent"
    git -C "$parent" checkout -q "$sha"
fi
(cd "$parent" && cargo build -q --release --offline --manifest-path benchmark/Cargo.toml)
cargo build -q --release --offline --manifest-path benchmark/Cargo.toml

runs=$scratch/$workload
: >"$runs.parent.jsonl"
: >"$runs.change.jsonl"
: >"$runs.parent.reps"
: >"$runs.change.reps"
: >"$runs.parent.acq"
: >"$runs.change.acq"
i=1
while [ "$i" -le "$pairs" ]; do
    order="parent change"
    [ $((i % 2)) = 0 ] && order="change parent"
    for side in $order; do
        dir=$root
        [ "$side" = parent ] && dir=$parent
        "$dir/$bin" --workload "$workload" --seed $((seed + i - 1)) \
            --seconds "$seconds" --trace 0 >"$runs.out"
        tail -n 1 "$runs.out" >>"$runs.$side.jsonl"
        sed -n "s/^# $workload: \([0-9]*\) measured repetitions.*/\1/p" "$runs.out" >>"$runs.$side.reps"
        sed -n "s/^# $workload: acquire_p50_us \([0-9.]*\) over [0-9]* blocking acquires.*/\1/p" \
            "$runs.out" >>"$runs.$side.acq"
    done
    echo "pair $i/$pairs done" >&2
    i=$((i + 1))
done

# values <metric> <side>: the metric's value from each run, one per line.
values() {
    sed -n "s/.*\"$1\":{\"unit\":\"[^\"]*\",\"value\":\([^}]*\)}.*/\1/p" "$runs.$2.jsonl"
}
# quartiles: "median q1 q3" of the numbers on stdin (linear interpolation).
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   pos, lo) {
            pos = 1 + p * (NR - 1); lo = int(pos)
            return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%-12.6g %-12.6g %-12.6g", q(0.5), q(0.25), q(0.75) }'
}

echo "$workload: $pairs pairs of $seconds s, seeds $seed..$((seed + pairs - 1)), parent $sha, $(getconf _NPROCESSORS_ONLN) cores online"
printf '%-12s %-7s %-12s %-12s %-12s %s\n' metric side median q1 q3 "change won, median ratio"
for m in setup_s:lower ops_per_s:higher peak_rss_mb:lower; do
    name=${m%%:*} better=${m##*:}
    values "$name" parent >"$runs.p"
    values "$name" change >"$runs.c"
    won=$(paste -d ' ' "$runs.p" "$runs.c" | awk -v b="$better" \
        '(b == "higher" && $2 > $1) || (b == "lower" && $2 < $1) { w++ } END { print w + 0 }')
    p=$(quartiles <"$runs.p")
    c=$(quartiles <"$runs.c")
    ratio=$(echo "$p $c" | awk '{ printf "%.3f", $4 / $1 }')
    printf '%-12s %-7s %s\n' "$name" parent "$p"
    printf '%-12s %-7s %s %s/%s, x%s\n' "$name" change "$c" "$won" "$pairs" "$ratio"
done
if [ -s "$runs.parent.reps" ]; then
    printf '%-12s %-7s %s\n' repetitions parent "$(quartiles <"$runs.parent.reps")"
    printf '%-12s %-7s %s\n' repetitions change "$(quartiles <"$runs.change.reps")"
fi
if [ -s "$runs.parent.acq" ]; then
    printf '%-12s %-7s %s\n' acq_p50_us parent "$(quartiles <"$runs.parent.acq")"
    printf '%-12s %-7s %s\n' acq_p50_us change "$(quartiles <"$runs.change.acq")"
fi
rm -f "$runs.p" "$runs.c" "$runs.out"
for side in parent change; do
    failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$runs.$side.jsonl" | awk '{ s += $1 } END { print s + 0 }')
    correct=$(grep -c '"correct":true' "$runs.$side.jsonl" || true)
    echo "$side: failed ops $failed, correct $correct/$pairs"
done
