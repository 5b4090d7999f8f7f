#!/usr/bin/env bash
# Builds the benchmark and the stpd daemon it drives (release, offline),
# then runs the benchmark with the given arguments, for example:
#   bash stpbench/run.sh --workload npn4_cold --seed 1 --seconds 10 --trace 0
# Run it from the repository root; the build honours CARGO_TARGET_DIR.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "${CARGO_TARGET_DIR:-$here/target}/release/stpbench" "$@"
