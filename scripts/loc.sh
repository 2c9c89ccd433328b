#!/bin/sh
# Non-test Rust lines under crates/: every `.rs` file that is not a `tests.rs`
# or under a `tests/` directory, counted up to its first `#[cfg(test)]`.
# The figure each PR's CHANGES entry quotes; run from the repository root.
find crates -name '*.rs' ! -name tests.rs ! -path '*/tests/*' | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'
