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

echo "==> zero-allocation steady state"
cargo test -q --test zero_alloc

echo "==> trace feature: build, lints, instrumented zero-alloc"
cargo build --release --features trace
cargo clippy --workspace --all-targets --features trace -- -D warnings
cargo test -q --features trace --test zero_alloc

echo "==> np-calib: profile, fit, write artifact (<=15% calibrated-drift gate)"
cargo run --release -q -p np-bench --features trace --bin calibrate \
    CALIB.json /tmp/BENCH_calib.fresh.json >/dev/null

echo "==> trace_report: layer profiles, calibrated drift, <=5% overhead gate"
NP_CALIB=CALIB.json \
cargo run --release -q -p np-bench --features trace --bin trace_report \
    BENCH_trace.json /tmp/BENCH_trace_events.json >/dev/null

echo "==> kernel exactness proptests (release: optimizer must not change results)"
test_named "cargo test -q --release -p np-quant" \
    microkernel_matches_qgemm_row_at_ragged_shapes \
    depthwise_fast_path_matches_reference_at_ragged_shapes \
    pool_planes_match_reference_at_ragged_shapes \
    lowered_qconv2d_equals_reference_exactly

echo "==> raw-i8 kernel exactness proptests (release)"
test_named "cargo test -q --release -p np-quant" \
    i8_microkernel_matches_i16_reference_at_adversarial_corners \
    i8_program_equals_scalar_i16_program_across_batches

echo "==> batched exactness proptests (release)"
test_named "cargo test -q --release -p np-quant" \
    batched_microkernel_equals_per_frame_runs \
    run_int_batched_equals_independent_prepacked_runs

echo "==> forced-scalar leg: NP_ISA pins the portable kernel bodies"
# The same exactness suites with SIMD dispatch disabled, so the scalar
# fallbacks are covered even on an AVX2 host (and an AVX2-only bug cannot
# hide behind a scalar-only CI box, or vice versa). The explicitly
# raw-i8 programs of the isa-parity suite run the portable i8 body here.
test_named "env NP_ISA=scalar cargo test -q --release -p np-quant" \
    microkernel_matches_qgemm_row_at_ragged_shapes \
    depthwise_fast_path_matches_reference_at_ragged_shapes \
    pool_planes_match_reference_at_ragged_shapes \
    i8_microkernel_matches_i16_reference_at_adversarial_corners \
    batched_microkernel_equals_per_frame_runs \
    i8_program_equals_scalar_i16_program_across_batches \
    run_int_batched_equals_independent_prepacked_runs
NP_ISA=scalar cargo test -q --release --test prepacked

echo "==> serving exactness (multiplexed sessions vs isolated runners)"
cargo test -q --release --test serving

echo "==> bench_serving --smoke: SLO, zero-alloc and exactness gates"
cargo run --release -q -p np-bench --bin bench_serving -- --smoke \
    /tmp/BENCH_serving.fresh.json >/dev/null

echo "==> benchmark regression check incl. batch sweeps (strict)"
cargo run --release -q -p np-bench --bin bench_kernels /tmp/BENCH_kernels.fresh.json \
    >/dev/null
cargo run --release -q -p np-bench --bin bench_pipeline /tmp/BENCH_pipeline.fresh.json \
    >/dev/null
cargo run --release -q -p np-bench --bin bench_compare -- --strict \
    BENCH_kernels.json /tmp/BENCH_kernels.fresh.json \
    BENCH_pipeline.json /tmp/BENCH_pipeline.fresh.json \
    BENCH_serving.json /tmp/BENCH_serving.fresh.json \
    BENCH_calib.json /tmp/BENCH_calib.fresh.json

echo "==> ci.sh passed"
