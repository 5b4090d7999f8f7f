#!/usr/bin/env bash
# The CI gate: the one step list both a local run and
# .github/workflows/ci.yml execute (the workflow only installs the
# toolchain components, then runs this script). It checks formatting,
# clippy on the default and feature builds, every pinned baseline, the
# stpbench answer checks, and the full test suite, each at STP_JOBS=1
# and STP_JOBS=$(nproc) where scheduling can matter.
# Everything is --offline: the workspace has no registry dependencies
# (rand/proptest/criterion are vendored in vendor/), so a network-less
# container must build and test cleanly.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy --features faultsim (deny warnings)"
cargo clippy --workspace --all-targets --offline --features faultsim -- -D warnings

echo "==> cargo clippy --features alloc-profile (deny warnings)"
cargo clippy --workspace --all-targets --offline --features alloc-profile -- -D warnings

echo "==> warm-store smoke (STP_JOBS=1): warm an NPN4 slice, save, reload, zero misses"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test warm_store smoke_warm_slice

echo "==> warm-store smoke (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test warm_store smoke_warm_slice

echo "==> pinned baselines (Table I suite rows, multi-output and rewrite cases, STP_JOBS=1, vs committed BENCH_pins.json)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test pins

echo "==> pinned baselines (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test pins

echo "==> wide-spec differential (WIDE[9..12] vs the forced-naive reference)"
cargo test -q -p stp-bench --offline --test wide_baseline wide_specs_match_forced_naive_reference

echo "==> warm farm baseline (sharded NPN5/6 sample, STP_JOBS=1, vs committed BENCH_warm.json)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test warm_farm

echo "==> warm farm baseline (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test warm_farm

echo "==> multi-output differential (STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test mo_differential

echo "==> multi-output differential (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test mo_differential

echo "==> suite determinism (two-level scheduler, STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test determinism

echo "==> suite determinism (two-level scheduler, STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test determinism

echo "==> profiler smoke + stpprof drift gate (STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --test profile_smoke --test profile_determinism

echo "==> profiler smoke + stpprof drift gate (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --test profile_smoke --test profile_determinism

echo "==> profiler smoke with the counting allocator (--features alloc-profile, STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-bench --offline --features alloc-profile --test profile_smoke

echo "==> profiler smoke with the counting allocator (--features alloc-profile, STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-bench --offline --features alloc-profile --test profile_smoke

echo "==> serve smoke + load baseline (stpd wire protocol, STP_JOBS=1, vs committed BENCH_serve.json)"
STP_JOBS=1 cargo test -q -p stp-serve --offline --test serve_smoke --test serve_baseline

echo "==> serve smoke + load baseline (STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-serve --offline --test serve_smoke --test serve_baseline

echo "==> stpbench answer checks (every workload at tiny size, traced and untraced)"
cargo test --release --offline --manifest-path stpbench/Cargo.toml

echo "==> NPN canonicalization oracle (release: every function of <= 4 inputs through the orbit walk, the memo fill and the memo hit, vs the reference loops)"
cargo test --release -q -p stp-tt --offline

echo "==> factorization engine at release sizes (split plans up to 12 support variables; the split kernel at u64 and W4 lanes against the naive reference and each other)"
cargo test --release -q -p stp-synth --offline

echo "==> cargo test (STP_JOBS=1, sequential default)"
STP_JOBS=1 cargo test -q --workspace --offline

echo "==> cargo test (STP_JOBS=$(nproc), parallel default)"
STP_JOBS="$(nproc)" cargo test -q --workspace --offline

echo "==> fault-injection suite (--features faultsim, STP_JOBS=1)"
STP_JOBS=1 cargo test -q -p stp-store -p stp-synth -p stp-bench -p stp-serve --offline --features faultsim

echo "==> fault-injection suite (--features faultsim, STP_JOBS=$(nproc))"
STP_JOBS="$(nproc)" cargo test -q -p stp-store -p stp-synth -p stp-bench -p stp-serve --offline --features faultsim

echo "CI OK"
