//! Per-layer schedule pricing: compute vs DMA under double buffering.

use crate::tiling::{matters, total_dma_bytes, TilingChoice};
use np_gap8::calib::{im2row_conv_work, CalibModel};
use np_gap8::dma::DmaLink;
use np_gap8::perf::{compute_cycles, CycleBreakdown, KernelClass};
use np_gap8::Gap8Config;
use np_nn::{LayerDesc, LayerKind};

/// Maps a layer description to its kernel class on the cluster.
pub fn kernel_class(layer: &LayerDesc) -> KernelClass {
    match layer.kind {
        LayerKind::Conv2d => {
            if layer.kernel == 1 {
                KernelClass::Pointwise
            } else {
                KernelClass::Conv
            }
        }
        LayerKind::DepthwiseConv2d => KernelClass::DepthwiseConv,
        LayerKind::Linear => KernelClass::Linear,
        LayerKind::MaxPool | LayerKind::AvgPool => KernelClass::Pool,
        LayerKind::BatchNorm | LayerKind::Activation | LayerKind::Reshape => {
            KernelClass::Elementwise
        }
    }
}

/// The calibrated model's workload descriptors of one layer: MACs,
/// activation bytes moved (int8 input read + output written), and im2row
/// panel bytes lowered. For im2row-lowered conv kinds both are counted as
/// the host's raw-i8 path executes them ([`im2row_conv_work`]: whole GEMM
/// tiles over a u8 panel of whole column blocks); kernels that never
/// build a panel lower zero bytes. These are the features the
/// `np-calib` fitter regresses measured time against, so the fitter and
/// the calibrated plans price exactly the same quantities.
pub fn layer_workload(layer: &LayerDesc) -> (u64, u64, u64) {
    let io_bytes = layer.input_elems() + layer.output_elems();
    match layer.kind {
        LayerKind::Conv2d => {
            let cols = layer.out_hw.0 * layer.out_hw.1;
            let patch = layer.in_channels * layer.kernel * layer.kernel;
            let (macs, panel) =
                im2row_conv_work(layer.out_channels as u64, cols as u64, patch as u64);
            (macs, io_bytes, panel)
        }
        _ => (layer.macs(), io_bytes, 0),
    }
}

/// Prices one layer: compute cycles from the kernel model, per-tile DMA
/// over L2↔L1, and the stall cycles double buffering cannot hide.
///
/// With ping-pong buffers, tile `i+1`'s transfer overlaps tile `i`'s
/// compute; the visible cost per steady-state tile is
/// `max(compute_tile, dma_tile)`, plus a prologue (first input transfer)
/// and epilogue (last output transfer).
pub fn schedule_layer(layer: &LayerDesc, choice: TilingChoice, cfg: &Gap8Config) -> CycleBreakdown {
    schedule_layer_with(layer, choice, cfg, None)
}

/// [`schedule_layer`] with an optional calibration artifact: when `calib`
/// is present the layer is priced by the fitted per-kernel-class linear
/// model over [`layer_workload`] descriptors; when absent (or for free
/// folded ops) the analytic model applies.
pub fn schedule_layer_with(
    layer: &LayerDesc,
    choice: TilingChoice,
    cfg: &Gap8Config,
    calib: Option<&CalibModel>,
) -> CycleBreakdown {
    if !matters(layer.kind) {
        // Folded/free ops: zero cost at deployment granularity. (BatchNorm
        // is folded into convs before deployment; standalone activations
        // are fused into the producing kernel.)
        return CycleBreakdown::default();
    }

    let class = kernel_class(layer);
    if let Some(model) = calib {
        let (macs, io_bytes, im2row_bytes) = layer_workload(layer);
        return model.breakdown(class, macs, io_bytes, im2row_bytes);
    }
    let io_bytes = layer.input_elems() + layer.output_elems();
    let compute = compute_cycles(cfg, class, layer.macs(), layer.out_channels, io_bytes);

    let dma_bytes = total_dma_bytes(layer, choice);
    let dma_total = DmaLink::L2ToL1.transfer_cycles(dma_bytes / choice.n_tiles.max(1))
        * choice.n_tiles.max(1) as u64;

    let n = choice.n_tiles.max(1) as u64;
    let compute_per_tile = compute / n;
    let dma_per_tile = dma_total / n;
    // Steady state: the longer of the two pipelines; stall is the excess.
    let steady_stall = dma_per_tile.saturating_sub(compute_per_tile) * n.saturating_sub(1);
    // Prologue + epilogue: one un-overlapped tile transfer.
    let stall = steady_stall + dma_per_tile;

    CycleBreakdown {
        compute,
        dma_stall: stall,
        setup: cfg.layer_setup_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::{solve_tiling, TilingObjective};

    fn layer(kind: LayerKind, cin: usize, cout: usize, hw: (usize, usize), k: usize) -> LayerDesc {
        LayerDesc {
            kind,
            name: "t".into(),
            in_channels: cin,
            out_channels: cout,
            in_hw: hw,
            out_hw: hw,
            kernel: k,
            stride: 1,
            padding: k / 2,
        }
    }

    #[test]
    fn compute_bound_conv_has_small_stall_fraction() {
        let cfg = Gap8Config::default();
        let l = layer(LayerKind::Conv2d, 32, 64, (24, 40), 3);
        let choice = solve_tiling(&l, &cfg, TilingObjective::MaxTile).unwrap();
        let cost = schedule_layer(&l, choice, &cfg);
        assert!(
            (cost.dma_stall as f64) < 0.35 * cost.compute as f64,
            "stall {} vs compute {}",
            cost.dma_stall,
            cost.compute
        );
    }

    #[test]
    fn depthwise_is_stall_heavy() {
        let cfg = Gap8Config::default();
        let conv = layer(LayerKind::Conv2d, 32, 32, (24, 40), 3);
        let dw = layer(LayerKind::DepthwiseConv2d, 32, 32, (24, 40), 3);
        let c_conv = schedule_layer(
            &conv,
            solve_tiling(&conv, &cfg, TilingObjective::MaxTile).unwrap(),
            &cfg,
        );
        let c_dw = schedule_layer(
            &dw,
            solve_tiling(&dw, &cfg, TilingObjective::MaxTile).unwrap(),
            &cfg,
        );
        // Per MAC, depthwise is far more expensive.
        let conv_per_mac = c_conv.total() as f64 / conv.macs() as f64;
        let dw_per_mac = c_dw.total() as f64 / dw.macs() as f64;
        assert!(dw_per_mac > 2.0 * conv_per_mac);
    }

    #[test]
    fn free_kinds_cost_nothing() {
        let cfg = Gap8Config::default();
        let l = layer(LayerKind::Activation, 32, 32, (24, 40), 1);
        let choice = solve_tiling(&l, &cfg, TilingObjective::MaxTile).unwrap();
        assert_eq!(schedule_layer(&l, choice, &cfg).total(), 0);
    }

    #[test]
    fn calibrated_pricing_uses_fitted_coefficients() {
        use np_gap8::calib::{CalibModel, ClassCoeffs, ClassFit};

        let cfg = Gap8Config::default();
        let l = layer(LayerKind::Conv2d, 32, 32, (24, 40), 3);
        let choice = solve_tiling(&l, &cfg, TilingObjective::MaxTile).unwrap();
        let pooled = ClassFit {
            class: KernelClass::Elementwise,
            coeffs: ClassCoeffs {
                cycles_per_mac: 1.0,
                cycles_per_byte: 0.0,
                cycles_per_im2row_byte: 0.0,
                overhead_cycles: 0.0,
            },
            samples: 3,
            features: "pooled".into(),
            mean_abs_residual_pct: 0.0,
            max_abs_residual_pct: 0.0,
        };
        let model = CalibModel {
            schema_version: np_gap8::calib::SCHEMA_VERSION,
            host: "test".into(),
            kernel_isa: "scalar".into(),
            np_threads: 1,
            profile_frames: 1,
            scale_ns_per_cycle: 1.0,
            classes: vec![ClassFit {
                class: KernelClass::Conv,
                coeffs: ClassCoeffs {
                    cycles_per_mac: 0.25,
                    cycles_per_byte: 0.0,
                    cycles_per_im2row_byte: 0.0,
                    overhead_cycles: 100.0,
                },
                ..pooled.clone()
            }],
            pooled,
        };
        let calibrated = schedule_layer_with(&l, choice, &cfg, Some(&model));
        let (macs, _, _) = layer_workload(&l);
        // The fitted linear model is applied verbatim...
        assert_eq!(calibrated.total(), macs / 4 + 100);
        // ...and differs from the analytic price.
        assert_ne!(calibrated.total(), schedule_layer(&l, choice, &cfg).total());
        // Free ops stay free even under calibration.
        let relu = layer(LayerKind::Activation, 32, 32, (24, 40), 1);
        assert_eq!(
            schedule_layer_with(&relu, choice, &cfg, Some(&model)).total(),
            0
        );
    }

    #[test]
    fn workload_descriptors_match_layer_shapes() {
        let conv = layer(LayerKind::Conv2d, 32, 32, (24, 40), 3);
        let (macs, io_bytes, im2row) = layer_workload(&conv);
        assert_eq!(macs, conv.macs());
        assert_eq!(io_bytes, conv.input_elems() + conv.output_elems());
        // cols x patch = (24*40) x (32*3*3) u8 panel bytes per frame.
        assert_eq!(im2row, 24 * 40 * 32 * 9);
        // A ragged plane pays for whole 16-column blocks, 8-row patches
        // and 4-filter tiles: 2x3 outputs of a 3x3 filter over 12 channels
        // fill one block of 16 columns x 112 rows, and 30 filters run as
        // 32.
        let small = layer(LayerKind::Conv2d, 12, 30, (2, 3), 3);
        assert_eq!(
            layer_workload(&small),
            (32 * 16 * 112, 12 * 6 + 30 * 6, 16 * 112)
        );
        // Non-im2row kinds lower no panel bytes.
        let dw = layer(LayerKind::DepthwiseConv2d, 32, 32, (24, 40), 3);
        assert_eq!(layer_workload(&dw).2, 0);
        let lin = layer(LayerKind::Linear, 100, 4, (1, 1), 1);
        assert_eq!(layer_workload(&lin).2, 0);
    }

    #[test]
    fn kernel_class_mapping() {
        let pw = layer(LayerKind::Conv2d, 16, 32, (8, 8), 1);
        assert_eq!(kernel_class(&pw), KernelClass::Pointwise);
        let conv = layer(LayerKind::Conv2d, 16, 32, (8, 8), 3);
        assert_eq!(kernel_class(&conv), KernelClass::Conv);
        let lin = layer(LayerKind::Linear, 100, 4, (1, 1), 1);
        assert_eq!(kernel_class(&lin), KernelClass::Linear);
    }
}
