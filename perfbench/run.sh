#!/usr/bin/env bash
# Builds the release `seculator` daemon and the benchmark from source, then
# runs one workload:
#   bash perfbench/run.sh --workload <tcp|fanin-64|infer-mid> \
#       --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: no seculator workspace at $root" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin seculator 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
work="$CARGO_TARGET_DIR/perfbench-work"
mkdir -p "$work"
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --seculator "$CARGO_TARGET_DIR/release/seculator" --work-dir "$work" "$@"
