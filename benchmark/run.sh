#!/usr/bin/env bash
# The benchmark's one command. It builds `swhybrid` and the benchmark's own
# two crates from source, then hands every argument to the driver:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the result object
#   benchmark/run.sh [--seed N] [--seconds S]
#       the suite: every workload untraced and traced, one JSON document,
#       one row appended to benchmark/history.jsonl
#   benchmark/run.sh --aa | --spread N | --compare REV | --smoke
#       see benchmark/README.md
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# Without the program's sources there is nothing to measure.
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ] || [ ! -f "$root/BENCHMARK.json" ]; then
    echo "benchmark/run.sh: no swhybrid sources (Cargo.toml, crates/) beside benchmark/" >&2
    exit 2
fi

# One target directory for both builds when the caller names one (a
# relative name is relative to the checkout); otherwise each workspace's own.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    program_target=$CARGO_TARGET_DIR
    bench_target=$CARGO_TARGET_DIR
else
    program_target=$root/target
    bench_target=$here/target
fi

# cargo reports on stderr; stdout stays the driver's.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin swhybrid >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$bench_target/release/swbench" \
    --root "$root" \
    --bin "$program_target/release/swhybrid" \
    --layers "$bench_target/release/swbench-layers" \
    "$@"
