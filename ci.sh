#!/usr/bin/env sh
# Local CI gate: formatting, lints, and the tier-1 build+test pass.
# Mirrors what reviewers run; keep it green before pushing.
set -eu

# Runs `$1 -- <names>` (a `cargo test` command line) after checking that
# every name filter lists at least one test: libtest passes with zero
# tests run when a filter matches nothing, so a renamed or deleted test
# would otherwise drop out of its leg silently.
test_named() {
    cmd=$1
    shift
    for name in "$@"; do
        if ! $cmd -- --list "$name" 2>/dev/null | grep -q ': test$'; then
            echo "ci.sh: '$cmd' lists no test named '$name'" >&2
            exit 1
        fi
    done
    $cmd -- "$@"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (workspace, warnings are errors: broken intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q (every workspace crate)"
cargo build --release
cargo test -q --workspace

echo "==> benches compile"
cargo bench --workspace --no-run

# ── Exactness ──────────────────────────────────────────────────────────
# Every leg in this block passes or fails on the code alone, never on the
# host's speed, and all of them run before the first timing gate, so a
# noisy timing step cannot hide an exactness failure behind it.

echo "==> zero-allocation steady state"
cargo test -q --test zero_alloc

echo "==> trace feature: build, lints, instrumented zero-alloc"
cargo build --release --features trace
cargo clippy --workspace --all-targets --features trace -- -D warnings
cargo test -q --features trace --test zero_alloc

echo "==> kernel exactness proptests (release: optimizer must not change results)"
test_named "cargo test -q --release -p np-quant" \
    i8_microkernel_matches_qgemm_row_at_adversarial_corners \
    depthwise_fast_path_matches_reference_at_ragged_shapes \
    pool_planes_match_reference_at_ragged_shapes \
    lowered_qconv2d_equals_reference_exactly

echo "==> batched exactness (release): raw-i8 kernel and whole-network oracle"
test_named "cargo test -q --release -p np-quant" \
    batched_i8_kernel_equals_per_frame_runs \
    run_int_batched_equals_independent_prepacked_runs

echo "==> forced-scalar leg: NP_ISA pins the portable kernel bodies"
# The same exactness suites with SIMD dispatch disabled, so the portable
# raw-i8, depthwise and pooling bodies, which hosts without AVX2 run,
# are covered even on an AVX2 host (and an AVX2-only bug cannot hide
# behind a scalar-only CI box, or vice versa).
test_named "env NP_ISA=scalar cargo test -q --release -p np-quant" \
    i8_microkernel_matches_qgemm_row_at_adversarial_corners \
    depthwise_fast_path_matches_reference_at_ragged_shapes \
    pool_planes_match_reference_at_ragged_shapes \
    lowered_qconv2d_equals_reference_exactly \
    batched_i8_kernel_equals_per_frame_runs \
    run_int_batched_equals_independent_prepacked_runs
NP_ISA=scalar cargo test -q --release --test prepacked

echo "==> serving exactness (multiplexed sessions vs isolated runners)"
cargo test -q --release --test serving

echo "==> perfbench selftest: builds the benchmark, every workload bit-exact"
python3 perfbench/selftest.py

# ── Timing gates ───────────────────────────────────────────────────────
# Each gate compares arms measured in the same run on the same host;
# none reads a checked-in timing baseline (absolute times are compared by
# a perfbench A/B against the parent commit, bounded by BENCHMARK.json).
# Outputs go to /tmp, so the tracked artifacts stay as committed.

echo "==> bench_kernels: lowered beats direct, B=8 >= 0.95x B=1 (panel + whole program)"
cargo run --release -q -p np-bench --bin bench_kernels /tmp/BENCH_kernels.fresh.json \
    >/dev/null

echo "==> np-calib: profile, fit, write artifact (<=15% calibrated-drift gate)"
cargo run --release -q -p np-bench --features trace --bin calibrate \
    /tmp/CALIB.fresh.json /tmp/BENCH_calib.fresh.json >/dev/null

echo "==> trace_report: layer profiles, calibrated drift, <=5% overhead gate"
NP_CALIB=/tmp/CALIB.fresh.json \
cargo run --release -q -p np-bench --features trace --bin trace_report \
    /tmp/BENCH_trace.fresh.json /tmp/BENCH_trace_events.json >/dev/null

echo "==> bench_serving --smoke: exactness, speedup and SLO gates"
cargo run --release -q -p np-bench --bin bench_serving -- --smoke

echo "==> ci.sh passed"
