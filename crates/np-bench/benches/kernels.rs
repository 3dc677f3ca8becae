//! Kernel throughput: the float training kernels vs the integer-only
//! deployment kernels, at Frontnet-layer shapes.

use criterion::{criterion_group, criterion_main, Criterion};
use np_bench::lowered_qconv;
use np_quant::kernels::{qconv2d_reference, QConvGeometry};
use np_quant::requant::FixedMultiplier;
use np_tensor::conv::{conv2d, depthwise_conv2d, Conv2dSpec};
use np_tensor::im2col::{im2col, Im2colSpec};
use np_tensor::matmul::{matmul, matmul_acc_with};
use np_tensor::parallel::Pool;
use np_tensor::Tensor;
use std::hint::black_box;

/// Dominant conv layer of each paper network at the 96×160 deployment
/// resolution: (label, geometry, input height, input width).
///
/// F1/F2 are dominated by their 5×5 stems; M1.0 by its widest pointwise.
const PAPER_SHAPES: [(&str, QConvGeometry, usize, usize); 3] = [
    (
        "F1_stem_5x5",
        QConvGeometry {
            in_channels: 1,
            out_channels: 32,
            kernel: 5,
            stride: 2,
            padding: 2,
        },
        96,
        160,
    ),
    (
        "F2_block_3x3",
        QConvGeometry {
            in_channels: 40,
            out_channels: 16,
            kernel: 3,
            stride: 2,
            padding: 1,
        },
        24,
        40,
    ),
    (
        "M1.0_pointwise",
        QConvGeometry {
            in_channels: 60,
            out_channels: 60,
            kernel: 1,
            stride: 1,
            padding: 0,
        },
        12,
        20,
    ),
];

fn pseudo_i8(n: usize, seed: u64) -> Vec<i8> {
    let mut s = seed + 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 40) as u8 as i8
        })
        .collect()
}

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed + 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 40) as i32 % 200) as f32 / 100.0 - 1.0
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    // Frontnet stem at proxy resolution: 1->32, 5x5 s2 on 48x80.
    let input = Tensor::from_vec(&[1, 1, 48, 80], pseudo(48 * 80, 1));
    let weight = Tensor::from_vec(&[32, 1, 5, 5], pseudo(32 * 25, 2));
    c.bench_function("conv2d_f32_stem_5x5", |b| {
        b.iter(|| {
            black_box(conv2d(
                black_box(&input),
                &weight,
                None,
                Conv2dSpec {
                    stride: 2,
                    padding: 2,
                },
            ))
        })
    });

    // Mid-network 3x3: 32->32 on 12x20.
    let mid_in = Tensor::from_vec(&[1, 32, 12, 20], pseudo(32 * 240, 3));
    let mid_w = Tensor::from_vec(&[32, 32, 3, 3], pseudo(32 * 32 * 9, 4));
    c.bench_function("conv2d_f32_mid_3x3", |b| {
        b.iter(|| {
            black_box(conv2d(
                black_box(&mid_in),
                &mid_w,
                None,
                Conv2dSpec {
                    stride: 1,
                    padding: 1,
                },
            ))
        })
    });

    // Depthwise 3x3 at MobileNet shapes.
    let dw_w = Tensor::from_vec(&[32, 1, 3, 3], pseudo(32 * 9, 5));
    c.bench_function("depthwise_f32_3x3", |b| {
        b.iter(|| {
            black_box(depthwise_conv2d(
                black_box(&mid_in),
                &dw_w,
                None,
                Conv2dSpec {
                    stride: 1,
                    padding: 1,
                },
            ))
        })
    });

    // Integer conv at the same mid shape.
    let geo = QConvGeometry {
        in_channels: 32,
        out_channels: 32,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let qx: Vec<i8> = (0..32 * 240).map(|i| (i % 255) as i8).collect();
    let qw: Vec<i8> = (0..32 * 32 * 9).map(|i| ((i * 7) % 255) as i8).collect();
    let bias = vec![100i32; 32];
    let mults = vec![FixedMultiplier::from_real(0.003); 32];
    c.bench_function("qconv2d_i8_mid_3x3", |b| {
        b.iter(|| {
            black_box(lowered_qconv(
                Pool::global(),
                black_box(&qx),
                12,
                20,
                -3,
                geo,
                &qw,
                &bias,
                &mults,
                5,
            ))
        })
    });

    // Lowering + GEMM building blocks.
    let spec = Im2colSpec {
        channels: 32,
        height: 12,
        width: 20,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let flat = pseudo(32 * 240, 6);
    c.bench_function("im2col_32ch", |b| {
        b.iter(|| black_box(im2col(black_box(&flat), spec)))
    });

    let a = pseudo(32 * 288, 7);
    let bm = pseudo(288 * 240, 8);
    c.bench_function("matmul_32x288x240", |b| {
        b.iter(|| black_box(matmul(black_box(&a), &bm, 32, 288, 240)))
    });

    // Direct (reference loop nest) vs im2col-lowered integer conv at each
    // paper network's dominant layer shape.
    for (label, geo, h, w) in PAPER_SHAPES {
        let qx = pseudo_i8(geo.in_channels * h * w, 11);
        let qw = pseudo_i8(
            geo.out_channels * geo.in_channels * geo.kernel * geo.kernel,
            12,
        );
        let qb = vec![100i32; geo.out_channels];
        let qm = vec![FixedMultiplier::from_real(0.003); geo.out_channels];
        c.bench_function(&format!("qconv2d_direct_{label}"), |b| {
            b.iter(|| {
                black_box(qconv2d_reference(
                    black_box(&qx),
                    h,
                    w,
                    -3,
                    geo,
                    &qw,
                    &qb,
                    &qm,
                    5,
                    true,
                ))
            })
        });
        c.bench_function(&format!("qconv2d_lowered_{label}"), |b| {
            b.iter(|| {
                black_box(lowered_qconv(
                    Pool::serial(),
                    black_box(&qx),
                    h,
                    w,
                    -3,
                    geo,
                    &qw,
                    &qb,
                    &qm,
                    5,
                ))
            })
        });
    }

    // The float GEMM each shape lowers to, across pool widths. On a
    // single-core container these report the scheduling overhead floor
    // rather than a speedup; see DESIGN.md.
    for (label, geo, h, w) in PAPER_SHAPES {
        let (oh, ow) = geo.out_hw(h, w);
        let (m, k, n) = (
            geo.out_channels,
            geo.in_channels * geo.kernel * geo.kernel,
            oh * ow,
        );
        let ga = pseudo(m * k, 13);
        let gb = pseudo(k * n, 14);
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            c.bench_function(&format!("gemm_{label}_t{threads}"), |b| {
                b.iter(|| {
                    let mut gc = vec![0.0f32; m * n];
                    matmul_acc_with(pool, black_box(&ga), &gb, &mut gc, m, k, n);
                    black_box(gc)
                })
            });
        }
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
