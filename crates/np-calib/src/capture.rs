//! Structured profile capture: runs every zoo program layer-by-layer
//! under the np-trace recorder and joins each compute step's measured
//! time with its workload descriptors and analytic plan prediction.
//!
//! The join is positional, the same alignment `trace_report` asserts:
//! program step spans are named `{model}/{index:02}-{kind}`, free steps
//! (whole-frame span, in-place ReLU) are filtered out, and what remains
//! lines up 1:1 with the np-dory plan layers for the same proxy topology.
//! Medians come from the exact ring-buffer span events rather than the
//! log-histogram summaries — the histogram's ~12.5% bucket width would
//! eat most of the ≤15% drift budget before the fit even starts.

use crate::fit::Sample;
use np_dory::deploy_analytic;
use np_gap8::calib::im2row_conv_work;
use np_gap8::perf::KernelClass;
use np_gap8::Gap8Config;
use np_nn::init::SmallRng;
use np_quant::{QScratch, QuantizedNetwork, StepWorkload};
use np_tensor::parallel::Pool;
use np_tensor::Tensor;
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::hint::black_box;

/// Frames profiled per model (matches `trace_report`).
pub const PROFILE_FRAMES: usize = 30;

/// One captured compute layer: the fitter's sample plus the analytic
/// prediction used to anchor the ns→cycles scale.
#[derive(Debug, Clone)]
pub struct CapturedLayer {
    /// The fitter sample (span name, class, workloads, measured median).
    pub sample: Sample,
    /// Model the layer belongs to (`"F1"`, `"F2"`, `"M1.0"`).
    pub model: String,
    /// Analytic (uncalibrated) plan prediction for the same layer, in
    /// cluster cycles.
    pub analytic_cycles: f64,
}

/// A full capture: every zoo model's compute layers plus the provenance
/// the artifact records.
#[derive(Debug, Clone)]
pub struct Capture {
    /// All captured layers across models.
    pub layers: Vec<CapturedLayer>,
    /// Kernel isa the profiled programs were compiled for.
    pub kernel_isa: String,
    /// Worker threads used during capture.
    pub np_threads: usize,
    /// Frames profiled per model.
    pub profile_frames: usize,
    /// Host fingerprint (`arch/os/Ncpu`).
    pub host: String,
}

/// Maps a step's workload descriptors to its kernel class — the same
/// split np-dory's `kernel_class` applies to layer descriptions.
pub fn step_class(w: &StepWorkload) -> KernelClass {
    match w.kind {
        "conv" => {
            if w.kernel == 1 {
                KernelClass::Pointwise
            } else {
                KernelClass::Conv
            }
        }
        "dw" => KernelClass::DepthwiseConv,
        "linear" => KernelClass::Linear,
        "maxpool" | "avgpool" | "gap" => KernelClass::Pool,
        _ => KernelClass::Elementwise,
    }
}

fn pseudo_frames(n: usize, seed: u64) -> Tensor {
    let (c, h, w) = PROXY_INPUT;
    let mut s = seed + 1;
    let data: Vec<f32> = (0..n * c * h * w)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 40) as i32 % 200) as f32 / 100.0 - 1.0
        })
        .collect();
    Tensor::from_vec(&[n, c, h, w], data)
}

/// Exact median duration per span index from the raw ring-buffer events.
pub fn median_ns_by_span(events: &[np_trace::SpanEvent]) -> Vec<(u32, f64)> {
    let mut by_span: Vec<(u32, Vec<u64>)> = Vec::new();
    for e in events {
        match by_span.iter_mut().find(|(s, _)| *s == e.span) {
            Some((_, durs)) => durs.push(e.dur_ns),
            None => by_span.push((e.span, vec![e.dur_ns])),
        }
    }
    by_span
        .into_iter()
        .map(|(span, mut durs)| {
            durs.sort_unstable();
            let n = durs.len();
            let median = if n % 2 == 1 {
                durs[n / 2] as f64
            } else {
                (durs[n / 2 - 1] + durs[n / 2]) as f64 / 2.0
            };
            (span, median)
        })
        .collect()
}

/// Runs the three zoo proxies (F1, F2, M1.0) for [`PROFILE_FRAMES`]
/// frames each under the recorder and returns the per-layer capture.
///
/// The recorder must already be installed and enabled
/// (`np_trace::install`); the capture resets it before and after so its
/// events neither mix with nor leak into the caller's.
///
/// # Errors
///
/// Returns an error when no span events were recorded (recorder disabled
/// or the `trace` feature compiled out) or when the step/plan alignment
/// breaks — both mean the capture cannot produce a trustworthy fit.
pub fn capture_zoo(pool: Pool) -> Result<Capture, String> {
    np_trace::reset();

    let calib_frames = pseudo_frames(4, 7);
    let frame = pseudo_frames(1, 8);
    let mut rng = SmallRng::seed(3);
    let gap8 = Gap8Config::default();

    let mut layers = Vec::new();
    let mut kernel_isa = None;
    for id in [ModelId::F1, ModelId::F2, ModelId::M10] {
        let net = id.build_proxy(&mut rng);
        let qnet = QuantizedNetwork::quantize(&net, &calib_frames);
        let program = qnet.compile(PROXY_INPUT);
        kernel_isa.get_or_insert_with(|| program.isa().as_str().to_string());
        let mut scratch = QScratch::for_program(&program);
        let q = qnet.input_params().quantize_slice(frame.as_slice());
        for _ in 0..PROFILE_FRAMES {
            black_box(program.run_int_prepacked(pool, &mut scratch, black_box(&q)));
        }

        let events = np_trace::span_events();
        if events.is_empty() {
            return Err(
                "no span events recorded — is the recorder installed, enabled, and the \
                 `trace` feature compiled in?"
                    .to_string(),
            );
        }
        let medians = median_ns_by_span(&events);
        let names = np_trace::span_names();

        // Compute steps: workload-tagged, positional join via span names.
        let workloads = program.step_workloads();
        let name = id.name();
        let mut model_layers = Vec::new();
        for w in &workloads {
            if w.kind == "relu" {
                continue; // free at deployment granularity
            }
            let span_name = format!("{name}/{:02}-{}", w.index, w.kind);
            let span_idx = names
                .iter()
                .position(|n| *n == span_name)
                .ok_or_else(|| format!("span `{span_name}` was never registered"))?;
            let (_, median) = medians
                .iter()
                .find(|(s, _)| *s as usize == span_idx)
                .ok_or_else(|| format!("span `{span_name}` recorded no events"))?;
            // im2row-lowered steps are counted as the host runs them: GEMM
            // tiles over a u8 panel of whole column blocks, which the
            // lowering writes and the GEMM re-reads — the descriptors
            // np-dory's `layer_workload` prices.
            let (macs, im2row_bytes) = if w.im2row_cols > 0 && w.out_channels > 0 {
                let out = w.out_channels as u64;
                im2row_conv_work(out, w.im2row_cols, w.macs / (out * w.im2row_cols))
            } else {
                (w.macs, 0)
            };
            model_layers.push(CapturedLayer {
                sample: Sample {
                    name: span_name,
                    class: step_class(w),
                    macs,
                    io_bytes: w.io_bytes,
                    im2row_bytes,
                    measured_ns: *median,
                },
                model: name.clone(),
                analytic_cycles: 0.0, // filled from the plan below
            });
        }

        // Align 1:1 with the analytic plan and record its predictions.
        let plan = deploy_analytic(&net.describe(PROXY_INPUT), &gap8)
            .map_err(|e| format!("{name}: proxy must deploy: {e}"))?;
        if plan.layers.len() != model_layers.len() {
            return Err(format!(
                "{name}: {} compute steps vs {} plan layers — alignment broke",
                model_layers.len(),
                plan.layers.len()
            ));
        }
        for (captured, planned) in model_layers.iter_mut().zip(&plan.layers) {
            captured.analytic_cycles = planned.cycles.total() as f64;
        }
        layers.extend(model_layers);
        np_trace::reset(); // per-model event log: ring capacity headroom
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Capture {
        layers,
        kernel_isa: kernel_isa.unwrap_or_else(|| "unknown".to_string()),
        np_threads: pool.threads(),
        profile_frames: PROFILE_FRAMES,
        host: format!(
            "{}/{}/{}cpu",
            std::env::consts::ARCH,
            std::env::consts::OS,
            cpus
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_class_mapping_matches_dory_split() {
        let w = |kind, kernel| StepWorkload {
            index: 0,
            kind,
            kernel,
            out_channels: 8,
            macs: 1,
            io_bytes: 1,
            im2row_cols: 0,
        };
        assert_eq!(step_class(&w("conv", 3)), KernelClass::Conv);
        assert_eq!(step_class(&w("conv", 1)), KernelClass::Pointwise);
        assert_eq!(step_class(&w("dw", 3)), KernelClass::DepthwiseConv);
        assert_eq!(step_class(&w("linear", 1)), KernelClass::Linear);
        assert_eq!(step_class(&w("maxpool", 2)), KernelClass::Pool);
        assert_eq!(step_class(&w("gap", 1)), KernelClass::Pool);
        assert_eq!(step_class(&w("relu", 1)), KernelClass::Elementwise);
    }

    /// The descriptors the fitter prices are the buffer the u8 lowering
    /// really fills, ragged last blocks and padded patches included, and
    /// the MACs of the GEMM's whole filter-row tiles over it.
    #[test]
    fn im2row_descriptors_follow_the_i8_kernel_layout() {
        use np_quant::microkernel::MR;
        for (out, cols, patch) in [
            (32usize, 960, 25),
            (12, 60, 288),
            (30, 15, 180),
            (48, 6, 216),
        ] {
            let panel = np_quant::lowering::u8_lowered_len(cols, patch) as u64;
            let tiles = out.div_ceil(MR) * MR;
            assert_eq!(
                im2row_conv_work(out as u64, cols as u64, patch as u64),
                (tiles as u64 * panel, panel),
                "out {out} cols {cols} patch {patch}"
            );
        }
    }

    #[test]
    fn median_is_exact_for_odd_and_even_counts() {
        let ev = |span, dur_ns| np_trace::SpanEvent {
            span,
            start_ns: 0,
            dur_ns,
            bytes: 0,
        };
        let medians = median_ns_by_span(&[ev(0, 30), ev(0, 10), ev(0, 20), ev(1, 4), ev(1, 8)]);
        assert_eq!(medians.len(), 2);
        assert_eq!(medians[0], (0, 20.0));
        assert_eq!(medians[1], (1, 6.0));
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn capture_without_recorder_errors_instead_of_fitting_garbage() {
        let err = capture_zoo(Pool::serial()).unwrap_err();
        assert!(err.contains("no span events"), "{err}");
    }
}
