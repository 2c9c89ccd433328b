#!/bin/sh
# The deterministic protocol counters of one traced benchmark pass, parent
# against change, side by side: the identity check of a change that must not
# alter what the protocol does.
#
#   scripts/counts.sh <parent-sha> [workload=gc_churn_sim] [seed=1] [scratch-dir]
#
# Run from the repository root; the change is the working tree. The parent is
# cloned and built under <scratch-dir> as scripts/pairs.sh does (same default,
# same clone). Each side runs one traced 2 s pass (--trace 1). Exits 1 if any
# counter differs or is missing on either side.
set -eu
if [ $# -lt 1 ]; then
    sed -n '6p' "$0" >&2
    exit 2
fi
sha=$1 workload=${2:-gc_churn_sim} seed=${3:-1}
scratch=${4:-${TMPDIR:-/tmp}/bmx-pairs}
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

out=$scratch/counts.$workload
for side in parent change; do
    dir=$root
    [ "$side" = parent ] && dir=$parent
    "$dir/$bin" --workload "$workload" --seed "$seed" --seconds 2 --trace 1 \
        >"$out.$side.txt"
done

echo "$workload: traced pass, seed $seed, parent $sha"
printf '%-24s %14s %14s\n' counter parent change
status=0
for name in net.envelopes net.bytes net.bytes_per_op dsm.envelopes_per_op \
    dsm.image_words_per_op gc.copied_words gc.scanned_objs gc.reclaimed_objs \
    gc.reclaimed_words gc.piggybacked_relocs gc.explicit_reloc_msgs gc.token_acquires \
    gc.audit_findings; do
    p=$(awk -v w="$workload" -v m="$name" '$1 == w && $2 == m { print $3 }' "$out.parent.txt")
    c=$(awk -v w="$workload" -v m="$name" '$1 == w && $2 == m { print $3 }' "$out.change.txt")
    mark=
    if [ -z "$p" ] || [ "$p" != "$c" ]; then
        mark='  <- differs'
        status=1
    fi
    printf '%-24s %14s %14s%s\n' "$name" "${p:--}" "${c:--}" "$mark"
done
exit $status
