//! Implementation of the `calibrate` binary: profile the zoo under the
//! trace recorder, fit per-kernel-class cycle-model coefficients, and
//! persist the calibration artifact.
//!
//! Outputs:
//!
//! 1. **`CALIB.json`** (first arg) — the versioned
//!    [`np_gap8::calib::CalibModel`] artifact that np-dory plans and
//!    np-gap8 perf load via `NP_CALIB`.
//! 2. **`BENCH_calib.json`** (second arg) — the fit report: host/isa
//!    provenance, per-class coefficients with the feature rung each class
//!    landed on and its residuals, and per-model drift of the *analytic*
//!    vs the *calibrated* model against the same measured layers, side by
//!    side.
//!
//! The run fails (non-zero exit) when the worst model's mean absolute
//! calibrated drift exceeds [`MAX_CALIBRATED_DRIFT_PCT`] — the artifact
//! is only worth committing if it actually closes the loop.

use np_calib::{calibrate, capture_zoo, CapturedLayer};
use np_gap8::calib::CalibModel;
use np_tensor::parallel::Pool;
use std::fmt::Write as _;

/// Gate: mean absolute per-layer drift after calibration, per model.
pub const MAX_CALIBRATED_DRIFT_PCT: f64 = 15.0;

/// Drift of a prediction set against the measured layers, via the same
/// least-squares-scale report the trace exporter uses.
fn drift_of(
    layers: &[&CapturedLayer],
    predict: impl Fn(&CapturedLayer) -> f64,
) -> np_trace::drift::DriftReport {
    let triples: Vec<(String, f64, f64)> = layers
        .iter()
        .map(|l| (l.sample.name.clone(), l.sample.measured_ns, predict(l)))
        .collect();
    np_trace::drift::drift_report(&triples)
}

fn calibrated_cycles(model: &CalibModel, l: &CapturedLayer) -> f64 {
    model
        .coeffs(l.sample.class)
        .predict(l.sample.macs, l.sample.io_bytes, l.sample.im2row_bytes)
}

/// Entry point for the `calibrate` binary.
pub fn main() {
    let mut args = std::env::args().skip(1);
    let calib_path = args.next().unwrap_or_else(|| "CALIB.json".to_string());
    let report_path = args
        .next()
        .unwrap_or_else(|| "BENCH_calib.json".to_string());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = Pool::serial();

    np_trace::install(np_trace::TraceConfig::default());
    np_trace::enable();

    let capture = capture_zoo(pool).expect("profile capture");
    let model = calibrate(&capture).expect("cycle-model fit");
    std::fs::write(&calib_path, model.to_json()).expect("write calibration artifact");
    np_trace::info!(
        "[calibrate] {} layers over {} models fitted on {} ({}, {} threads): \
         scale {:.4} ns/cycle",
        capture.layers.len(),
        3,
        model.host,
        model.kernel_isa,
        model.np_threads,
        model.scale_ns_per_cycle
    );

    // Per-model drift: analytic vs calibrated, against identical layers.
    let mut model_names: Vec<String> = Vec::new();
    for l in &capture.layers {
        if !model_names.contains(&l.model) {
            model_names.push(l.model.clone());
        }
    }
    let mut sections = Vec::new();
    let mut worst_calibrated_mean = 0.0f64;
    for name in &model_names {
        let layers: Vec<&CapturedLayer> =
            capture.layers.iter().filter(|l| l.model == *name).collect();
        let analytic = drift_of(&layers, |l| l.analytic_cycles);
        let fitted = drift_of(&layers, |l| calibrated_cycles(&model, l));
        np_trace::info!(
            "[calibrate] {name}: analytic drift mean |{:.1}|% max |{:.1}|% -> \
             calibrated mean |{:.1}|% max |{:.1}|% (gate {MAX_CALIBRATED_DRIFT_PCT}%)",
            analytic.mean_abs_drift_pct,
            analytic.max_abs_drift_pct,
            fitted.mean_abs_drift_pct,
            fitted.max_abs_drift_pct
        );
        worst_calibrated_mean = worst_calibrated_mean.max(fitted.mean_abs_drift_pct);
        sections.push((name.clone(), analytic, fitted));
    }

    // --- Assemble BENCH_calib.json --------------------------------------
    // A record of this fit, not a baseline: coefficients and drift
    // percentages move run to run with host noise.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"cpus_available\": {cpus},");
    let _ = writeln!(json, "  \"schema_version\": {},", model.schema_version);
    let _ = writeln!(json, "  \"host\": \"{}\",", model.host);
    let _ = writeln!(json, "  \"kernel_isa\": \"{}\",", model.kernel_isa);
    let _ = writeln!(json, "  \"np_threads\": {},", model.np_threads);
    let _ = writeln!(json, "  \"profile_frames\": {},", model.profile_frames);
    let _ = writeln!(json, "  \"layers_fitted\": {},", capture.layers.len());
    let _ = writeln!(
        json,
        "  \"scale_ns_per_cycle\": {:.6},",
        model.scale_ns_per_cycle
    );
    let _ = writeln!(
        json,
        "  \"max_calibrated_drift_pct\": {MAX_CALIBRATED_DRIFT_PCT},"
    );
    json.push_str("  \"classes\": [\n");
    let all_fits: Vec<&np_gap8::calib::ClassFit> = model
        .classes
        .iter()
        .chain(std::iter::once(&model.pooled))
        .collect();
    for (i, f) in all_fits.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"class\": \"{}\", \"features\": \"{}\", \"samples\": {}, \
             \"cycles_per_mac\": {:.6}, \"cycles_per_byte\": {:.6}, \
             \"cycles_per_im2row_byte\": {:.6}, \"overhead_cycles\": {:.1}, \
             \"mean_abs_residual_pct\": {:.2}, \"max_abs_residual_pct\": {:.2}}}",
            if i + 1 < all_fits.len() {
                f.class.calib_name()
            } else {
                "pooled"
            },
            f.features,
            f.samples,
            f.coeffs.cycles_per_mac,
            f.coeffs.cycles_per_byte,
            f.coeffs.cycles_per_im2row_byte,
            f.coeffs.overhead_cycles,
            f.mean_abs_residual_pct,
            f.max_abs_residual_pct
        );
        json.push_str(if i + 1 < all_fits.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"models\": [\n");
    for (i, (name, analytic, fitted)) in sections.iter().enumerate() {
        let _ = writeln!(json, "    {{\"model\": \"{name}\",");
        let _ = writeln!(
            json,
            "     \"analytic\": {{\"mean_abs_drift_pct\": {:.2}, \"max_abs_drift_pct\": {:.2}}},",
            analytic.mean_abs_drift_pct, analytic.max_abs_drift_pct
        );
        let _ = writeln!(
            json,
            "     \"calibrated\": {{\"mean_abs_drift_pct\": {:.2}, \"max_abs_drift_pct\": {:.2}}}",
            fitted.mean_abs_drift_pct, fitted.max_abs_drift_pct
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < sections.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&report_path, &json).expect("write calibration report");
    println!("{json}");
    np_trace::info!("[calibrate] wrote {calib_path} and {report_path}");
    assert!(
        worst_calibrated_mean <= MAX_CALIBRATED_DRIFT_PCT,
        "post-calibration mean abs drift {worst_calibrated_mean:.2}% exceeds the \
         {MAX_CALIBRATED_DRIFT_PCT}% gate"
    );
}
