#!/bin/sh
# Two full sets of the same binary and seed; prints, per workload and
# end-to-end metric, the second set's gap to the first beside the metric's
# bound, and exits non-zero if a gap exceeds its bound or a sim count differs.
# Run from anywhere; arguments (--seed, --seconds, --smoke) are passed on.
set -e
cd "$(dirname "$0")/.."
exec cargo run --release --offline --manifest-path benchmark/Cargo.toml -- repeat "$@"
