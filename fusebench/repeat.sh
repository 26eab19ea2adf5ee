#!/usr/bin/env bash
# A/A check: two interleaved sets of runs (default 5 each) of the same build;
# run k of both sets has seed+k, which is how the benchmark contract measures
# spread.  Prints each metric's quartiles per set; exits non-zero if a job
# failed, an end-to-end median pair differs by more than its bound, an
# end-to-end spread exceeds its bound, or an exact counter differs between the
# runs of one seed.
#
#   bash fusebench/repeat.sh [--runs <n>] [--seed <n>] [--seconds <s>] [--workload <name>]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/fusebench" repeat "$@"
