#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#
#   benchmark/run.sh [--seed N]        every workload, every metric
#   benchmark/run.sh --aa              two sets, compared against the bounds
#   benchmark/run.sh --quick           smoke test (not comparable)
#   benchmark/run.sh --test            the harness's own tests
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                      one workload, for the benchmark driver
#
# Exits non-zero if the build or any check fails.
set -euo pipefail

here="$(dirname "$0")"
manifest="$here/Cargo.toml"
flags=(--release --offline --locked --manifest-path "$manifest")

if [[ "${1:-}" == "--test" ]]; then
    exec cargo test "${flags[@]}"
fi

# Build output goes to stderr: standard output belongs to the results.
cargo build "${flags[@]}" >&2

S4D_BENCH_RUSTC="$(rustc --version)"
export S4D_BENCH_RUSTC

bin="${CARGO_TARGET_DIR:-$here/target}/release/s4d-benchmark"
exec "$bin" --out "$here/out/latest.json" "$@"
