#!/usr/bin/env bash
# The one command of BENCHMARK.json: builds fusebench, then runs it.
#
#   bash fusebench/run.sh
#       every workload in its own process, untraced then traced; prints every
#       metric as `workload metric unit value`, checks every output against
#       SequentialPct, writes out/fusebench.json and out/trace_<workload>.json.
#   bash fusebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one pass of one workload; the last line of stdout is the result object.
#
# The build goes to $CARGO_TARGET_DIR when that is set, else to target/ here.
# Everything the benchmark writes goes under out/ here.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/fusebench"
if [ $# -eq 0 ]; then
    set -- all
fi
exec "$bin" "$@"
