#!/usr/bin/env bash
# The benchmark's one command: build `graphh-node` and the harness from
# source, then hand every argument to the harness.
#
#   bash benchmark/run.sh                      every workload, untraced + traced
#   bash benchmark/run.sh --check-repeat       every workload twice, against the bounds
#   bash benchmark/run.sh --workload pr-cluster --seed 7 --seconds 10 --trace 0
#
# Both builds go to $CARGO_TARGET_DIR (default: target/ at the repository
# root), so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p graphh-bench --bin graphh-node >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
case "$CARGO_TARGET_DIR" in
    /*) built="$CARGO_TARGET_DIR" ;;
    *) built="$root/$CARGO_TARGET_DIR" ;;
esac
export GRAPHH_NODE_BIN="$built/release/graphh-node"
export GRAPHH_BENCH_OUT="$root/benchmark/out"
exec "$built/release/graphh-benchmark" "$@"
