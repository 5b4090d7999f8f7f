#!/usr/bin/env bash
# The CI gate: the one step list both a local run and
# .github/workflows/ci.yml execute (the workflow only installs the
# toolchain components, then runs this script). It checks formatting
# and clippy on the default and feature builds, then runs each test
# binary once per jobs count:
# - release builds, once each at the default jobs count: the stpbench
#   answer checks, and the `stp-tt` and `stp-synth` tests, which size
#   their checks by `cfg!(debug_assertions)` and so are different
#   binaries from the debug ones;
# - the debug test suite, `cargo test --workspace`, at STP_JOBS=1 and
#   STP_JOBS=$PAR_JOBS (one per CPU, at least 2, so a 1-CPU runner
#   still exercises the parallel paths); it holds every pinned baseline (`pins`,
#   `warm_farm`, the `serve_smoke` load test, ...) and every
#   differential and determinism test;
# - feature builds, also different binaries, at both jobs counts:
#   `profile_smoke` under `--features alloc-profile`, and the
#   fault-injection suite under `--features faultsim`.
# Everything is --offline: the workspace has no registry dependencies
# (rand/proptest/criterion are vendored in vendor/), so a network-less
# container must build and test cleanly.
set -euo pipefail
cd "$(dirname "$0")"

PAR_JOBS="$(nproc)"
if [ "$PAR_JOBS" -lt 2 ]; then
    PAR_JOBS=2
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy --features faultsim (deny warnings)"
cargo clippy --workspace --all-targets --offline --features faultsim -- -D warnings

echo "==> cargo clippy --features alloc-profile (deny warnings)"
cargo clippy --workspace --all-targets --offline --features alloc-profile -- -D warnings

echo "==> stpbench answer checks (every workload at tiny size, traced and untraced)"
cargo test --release --offline --manifest-path stpbench/Cargo.toml

echo "==> NPN canonicalization oracle (release: every function of <= 4 inputs through the orbit walk, the memo fill and the memo hit, vs the reference loops)"
cargo test --release -q -p stp-tt --offline

echo "==> factorization engine at release sizes (split plans up to 12 support variables; the split kernel at u64 and W4 lanes against the naive reference and each other)"
cargo test --release -q -p stp-synth --offline

echo "==> cargo test (STP_JOBS=1, sequential default)"
STP_JOBS=1 cargo test -q --workspace --offline

echo "==> cargo test (STP_JOBS=$PAR_JOBS, parallel default)"
STP_JOBS="$PAR_JOBS" cargo test -q --workspace --offline

echo "==> profiler smoke with the counting allocator (--features alloc-profile, STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --features alloc-profile --test profile_smoke

echo "==> profiler smoke with the counting allocator (--features alloc-profile, STP_JOBS=$PAR_JOBS)"
STP_JOBS="$PAR_JOBS" cargo test -q -p stp-bench --offline --features alloc-profile --test profile_smoke

echo "==> fault-injection suite (--features faultsim, STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-store -p stp-synth -p stp-bench -p stp-serve --offline --features faultsim

echo "==> fault-injection suite (--features faultsim, STP_JOBS=$PAR_JOBS)"
STP_JOBS="$PAR_JOBS" cargo test -q -p stp-store -p stp-synth -p stp-bench -p stp-serve --offline --features faultsim

echo "CI OK"
