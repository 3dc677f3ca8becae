//! Fitted cycle-model calibration: the artifact side of `np-calib`.
//!
//! The analytic throughput model in [`crate::perf`] prices layers from
//! first principles (MAC/cycle classes, DMA bandwidth, setup costs). The
//! trace recorder showed that model drifting ~67% mean against the layers
//! the host actually executes — useless for the relative per-layer costs
//! the adaptive policies price against. `np-calib` closes the loop: it
//! profiles every zoo program layer-by-layer, fits per-kernel-class
//! coefficients by least squares, and persists them as a versioned
//! `CALIB.json`. This module is the *consumer* half: the artifact schema
//! ([`CalibModel`]), its dependency-free JSON serializer/parser, and the
//! process-wide loader ([`current`]) that np-dory plans and np-gap8 perf
//! query before falling back to the analytic model.
//!
//! A calibrated prediction is linear in the layer's workload descriptors:
//!
//! ```text
//! cycles = cycles_per_mac · MACs
//!        + cycles_per_byte · io_bytes
//!        + cycles_per_im2row_byte · im2row_bytes
//!        + overhead_cycles
//! ```
//!
//! split into a [`CycleBreakdown`] as compute = MAC + column terms,
//! dma_stall = byte term, setup = overhead — so downstream energy
//! accounting (which weights compute vs DMA activity differently) keeps
//! working on calibrated plans. Coefficients are stored in *cycles* at
//! the artifact's `scale_ns_per_cycle`, so DVFS re-scaling
//! ([`crate::dvfs::OperatingPoint::apply_to`]) applies unchanged: cycles
//! are frequency-independent, only their wall-clock conversion moves.

use crate::perf::{CycleBreakdown, KernelClass};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Artifact schema version; bump on any incompatible field change.
/// [`current`] refuses artifacts with a different version (warning once)
/// rather than silently misreading them.
pub const SCHEMA_VERSION: u32 = 1;

impl KernelClass {
    /// Stable lowercase artifact name of the class.
    pub fn calib_name(self) -> &'static str {
        match self {
            KernelClass::Conv => "conv",
            KernelClass::Pointwise => "pointwise",
            KernelClass::DepthwiseConv => "depthwise",
            KernelClass::Linear => "linear",
            KernelClass::Pool => "pool",
            KernelClass::Elementwise => "elementwise",
        }
    }

    /// Inverse of [`Self::calib_name`].
    pub fn from_calib_name(name: &str) -> Option<KernelClass> {
        Some(match name {
            "conv" => KernelClass::Conv,
            "pointwise" => KernelClass::Pointwise,
            "depthwise" => KernelClass::DepthwiseConv,
            "linear" => KernelClass::Linear,
            "pool" => KernelClass::Pool,
            "elementwise" => KernelClass::Elementwise,
            _ => return None,
        })
    }
}

/// The calibrated model's `(macs, im2row_bytes)` descriptors of an
/// im2row-lowered conv with `out_channels` filters, `cols` output pixels
/// and `patch = C_in·K·K` taps, counted as the host's raw-i8 path runs
/// it: the lowering fills a u8 panel of whole 16-column blocks with each
/// patch padded to a multiple of 8 rows, and the GEMM computes whole
/// tiles of 4 filters × 16 columns over it. A plane with few output
/// pixels pays for a full block: a 2×3 plane runs 16 columns, 2.7× its
/// MACs. The block sizes are np-quant's `NR_I8`, `I16_LANES` and `MR`
/// (np-calib's tests pin them to its `u8_lowered_len`).
pub fn im2row_conv_work(out_channels: u64, cols: u64, patch: u64) -> (u64, u64) {
    let panel = cols.div_ceil(16) * 16 * patch.div_ceil(8) * 8;
    (out_channels.div_ceil(4) * 4 * panel, panel)
}

/// Fitted linear coefficients of one kernel class, in cluster cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassCoeffs {
    /// Cycles per multiply-accumulate (for im2row-lowered convs, per MAC
    /// the host GEMM executes; see [`im2row_conv_work`]).
    pub cycles_per_mac: f64,
    /// Cycles per activation byte read + written (arena traffic).
    pub cycles_per_byte: f64,
    /// Cycles per im2row panel byte lowered ([`im2row_conv_work`]; conv
    /// kinds only, 0 elsewhere).
    pub cycles_per_im2row_byte: f64,
    /// Fixed per-layer overhead in cycles.
    pub overhead_cycles: f64,
}

impl ClassCoeffs {
    /// Predicted cycles for a layer's workload descriptors (≥ 0).
    pub fn predict(&self, macs: u64, io_bytes: u64, im2row_bytes: u64) -> f64 {
        (self.cycles_per_mac * macs as f64
            + self.cycles_per_byte * io_bytes as f64
            + self.cycles_per_im2row_byte * im2row_bytes as f64
            + self.overhead_cycles)
            .max(0.0)
    }

    /// The prediction split into a [`CycleBreakdown`]: MAC + column terms
    /// as compute, the byte term as DMA-like stall, the constant as setup.
    pub fn breakdown(&self, macs: u64, io_bytes: u64, im2row_bytes: u64) -> CycleBreakdown {
        CycleBreakdown {
            compute: (self.cycles_per_mac * macs as f64
                + self.cycles_per_im2row_byte * im2row_bytes as f64)
                .max(0.0)
                .round() as u64,
            dma_stall: (self.cycles_per_byte * io_bytes as f64).max(0.0).round() as u64,
            setup: self.overhead_cycles.max(0.0).round() as u64,
        }
    }
}

/// One kernel class's fit, with enough provenance to audit it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassFit {
    /// The kernel class the coefficients apply to.
    pub class: KernelClass,
    /// Fitted coefficients.
    pub coeffs: ClassCoeffs,
    /// Number of traced layers the fit saw.
    pub samples: usize,
    /// Which feature set survived the degeneracy ladder
    /// (e.g. `"macs+bytes+cols+const"`, `"macs+const"`, `"pooled"`).
    pub features: String,
    /// Mean `|relative residual|` of the fit on its own samples, percent.
    pub mean_abs_residual_pct: f64,
    /// Largest `|relative residual|`, percent.
    pub max_abs_residual_pct: f64,
}

/// A versioned, host-attributed calibration artifact (`CALIB.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibModel {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Host fingerprint (`arch/os/cpus`) the profile was captured on.
    pub host: String,
    /// `KernelIsa` the profiled programs were compiled for.
    pub kernel_isa: String,
    /// Effective worker-thread count during capture.
    pub np_threads: usize,
    /// Frames profiled per model.
    pub profile_frames: usize,
    /// Nanoseconds per modeled cycle fitted between the measured layers
    /// and the *analytic* predictions — the bridge that keeps calibrated
    /// cycles on the same absolute scale as the uncalibrated model.
    pub scale_ns_per_cycle: f64,
    /// Per-class fits (classes with no samples are absent; consumers fall
    /// back to [`Self::pooled`]).
    pub classes: Vec<ClassFit>,
    /// All-class pooled fallback fit.
    pub pooled: ClassFit,
}

impl CalibModel {
    /// The coefficients to use for `class`: its fit when present, the
    /// pooled fallback otherwise.
    pub fn coeffs(&self, class: KernelClass) -> &ClassCoeffs {
        self.classes
            .iter()
            .find(|f| f.class == class)
            .map(|f| &f.coeffs)
            .unwrap_or(&self.pooled.coeffs)
    }

    /// True when `class` has its own (non-pooled) fit.
    pub fn has_class(&self, class: KernelClass) -> bool {
        self.classes.iter().any(|f| f.class == class)
    }

    /// Calibrated [`CycleBreakdown`] for one layer.
    pub fn breakdown(
        &self,
        class: KernelClass,
        macs: u64,
        io_bytes: u64,
        im2row_bytes: u64,
    ) -> CycleBreakdown {
        self.coeffs(class).breakdown(macs, io_bytes, im2row_bytes)
    }

    /// Renders the artifact as `CALIB.json` text.
    pub fn to_json(&self) -> String {
        fn fit_json(out: &mut String, f: &ClassFit, pad: &str) {
            let _ = write!(
                out,
                "{pad}{{\"class\": \"{}\", \"cycles_per_mac\": {:.9}, \
                 \"cycles_per_byte\": {:.9}, \"cycles_per_im2row_byte\": {:.9}, \
                 \"overhead_cycles\": {:.3}, \"samples\": {}, \"features\": \"{}\", \
                 \"mean_abs_residual_pct\": {:.3}, \"max_abs_residual_pct\": {:.3}}}",
                f.class.calib_name(),
                f.coeffs.cycles_per_mac,
                f.coeffs.cycles_per_byte,
                f.coeffs.cycles_per_im2row_byte,
                f.coeffs.overhead_cycles,
                f.samples,
                f.features,
                f.mean_abs_residual_pct,
                f.max_abs_residual_pct,
            );
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"host\": \"{}\",", self.host);
        let _ = writeln!(out, "  \"kernel_isa\": \"{}\",", self.kernel_isa);
        let _ = writeln!(out, "  \"np_threads\": {},", self.np_threads);
        let _ = writeln!(out, "  \"profile_frames\": {},", self.profile_frames);
        let _ = writeln!(
            out,
            "  \"scale_ns_per_cycle\": {:.9},",
            self.scale_ns_per_cycle
        );
        out.push_str("  \"classes\": [\n");
        for (i, f) in self.classes.iter().enumerate() {
            fit_json(&mut out, f, "    ");
            out.push_str(if i + 1 < self.classes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"pooled\":\n");
        fit_json(&mut out, &self.pooled, "    ");
        out.push_str("\n}\n");
        out
    }

    /// Parses `CALIB.json` text.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct (bad JSON,
    /// missing field, unknown class name).
    pub fn parse_json(text: &str) -> Result<CalibModel, String> {
        let root = json::parse(text)?;
        let obj = root.as_obj("top level")?;
        let fit_from = |v: &json::Value, what: &str| -> Result<ClassFit, String> {
            let f = v.as_obj(what)?;
            let class_name = json::get_str(f, "class", what)?;
            let class = KernelClass::from_calib_name(&class_name)
                .ok_or_else(|| format!("{what}: unknown kernel class `{class_name}`"))?;
            Ok(ClassFit {
                class,
                coeffs: ClassCoeffs {
                    cycles_per_mac: json::get_num(f, "cycles_per_mac", what)?,
                    cycles_per_byte: json::get_num(f, "cycles_per_byte", what)?,
                    cycles_per_im2row_byte: json::get_num(f, "cycles_per_im2row_byte", what)?,
                    overhead_cycles: json::get_num(f, "overhead_cycles", what)?,
                },
                samples: json::get_num(f, "samples", what)? as usize,
                features: json::get_str(f, "features", what)?,
                mean_abs_residual_pct: json::get_num(f, "mean_abs_residual_pct", what)?,
                max_abs_residual_pct: json::get_num(f, "max_abs_residual_pct", what)?,
            })
        };
        let classes = json::get(obj, "classes", "top level")?
            .as_arr("classes")?
            .iter()
            .map(|v| fit_from(v, "classes entry"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CalibModel {
            schema_version: json::get_num(obj, "schema_version", "top level")? as u32,
            host: json::get_str(obj, "host", "top level")?,
            kernel_isa: json::get_str(obj, "kernel_isa", "top level")?,
            np_threads: json::get_num(obj, "np_threads", "top level")? as usize,
            profile_frames: json::get_num(obj, "profile_frames", "top level")? as usize,
            scale_ns_per_cycle: json::get_num(obj, "scale_ns_per_cycle", "top level")?,
            classes,
            pooled: fit_from(json::get(obj, "pooled", "top level")?, "pooled")?,
        })
    }

    /// Reads and parses an artifact file.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure as text.
    pub fn load(path: &str) -> Result<CalibModel, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Self::parse_json(&text)
    }
}

/// The process-wide calibration artifact, loaded once from the `NP_CALIB`
/// environment variable: a path loads that artifact; unset, empty, `off`,
/// `none` or `0` mean *no calibration* (the analytic model). A load or
/// schema failure warns once and behaves like no calibration — a corrupt
/// artifact must never take the planner down.
pub fn current() -> Option<&'static CalibModel> {
    static CURRENT: OnceLock<Option<CalibModel>> = OnceLock::new();
    CURRENT
        .get_or_init(|| {
            let raw = std::env::var("NP_CALIB").ok()?;
            let path = raw.trim();
            if path.is_empty() || matches!(path.to_ascii_lowercase().as_str(), "off" | "none" | "0")
            {
                return None;
            }
            match CalibModel::load(path) {
                Ok(m) if m.schema_version == SCHEMA_VERSION => Some(m),
                Ok(m) => {
                    np_trace::warn_once!(
                        "ignoring NP_CALIB={path}: schema version {} (this build reads {}); \
                         re-run the `calibrate` bench",
                        m.schema_version,
                        SCHEMA_VERSION
                    );
                    None
                }
                Err(e) => {
                    np_trace::warn_once!(
                        "ignoring NP_CALIB={path}: {e}; falling back to the analytic cycle model"
                    );
                    None
                }
            }
        })
        .as_ref()
}

/// [`current`], but a miss is an attributable event: the first consumer
/// asking for predictions without a calibration artifact warns once
/// through the log facade instead of silently falling back to the
/// uncalibrated analytic model.
pub fn current_or_warn(consumer: &str) -> Option<&'static CalibModel> {
    let model = current();
    if model.is_none() {
        np_trace::warn_once!(
            "{consumer}: no cycle-model calibration artifact (NP_CALIB unset); predictions \
             use the uncalibrated analytic model — run the `calibrate` bench and set \
             NP_CALIB=CALIB.json to close the drift loop"
        );
    }
    model
}

/// The minimal JSON reader behind [`CalibModel::parse_json`] — the
/// workspace deliberately carries no JSON dependency, and the artifact
/// loader sits below every crate that could host a shared one.
mod json {
    /// Parsed JSON value (numbers as f64 — the artifact stores nothing
    /// that needs more).
    #[derive(Debug, Clone)]
    pub enum Value {
        Num(f64),
        Str(String),
        Bool,
        Null,
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_obj(&self, what: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Obj(fields) => Ok(fields),
                _ => Err(format!("{what}: expected an object")),
            }
        }

        pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(format!("{what}: expected an array")),
            }
        }
    }

    pub fn get<'a>(obj: &'a [(String, Value)], key: &str, what: &str) -> Result<&'a Value, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{what}: missing field `{key}`"))
    }

    pub fn get_num(obj: &[(String, Value)], key: &str, what: &str) -> Result<f64, String> {
        match get(obj, key, what)? {
            Value::Num(n) => Ok(*n),
            _ => Err(format!("{what}: field `{key}` must be a number")),
        }
    }

    pub fn get_str(obj: &[(String, Value)], key: &str, what: &str) -> Result<String, String> {
        match get(obj, key, what)? {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("{what}: field `{key}` must be a string")),
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        if p.peek().is_some() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&mut self) -> Option<u8> {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool),
                Some(b'f') => self.literal("false", Value::Bool),
                Some(b'n') => self.literal("null", Value::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b"+-.eE0123456789".contains(b))
            {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos).copied() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos).copied() {
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'"') => out.push('"'),
                            Some(b'/') => out.push('/'),
                            other => {
                                return Err(format!(
                                    "unsupported escape {other:?} at byte {}",
                                    self.pos
                                ))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(b) => {
                        // Multi-byte UTF-8 passes through unmodified.
                        out.push(b as char);
                        self.pos += 1;
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                fields.push((key, self.value()?));
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(class: KernelClass, per_mac: f64, per_byte: f64) -> ClassFit {
        ClassFit {
            class,
            coeffs: ClassCoeffs {
                cycles_per_mac: per_mac,
                cycles_per_byte: per_byte,
                cycles_per_im2row_byte: 0.5,
                overhead_cycles: 1000.0,
            },
            samples: 12,
            features: "macs+bytes+cols+const".to_string(),
            mean_abs_residual_pct: 4.2,
            max_abs_residual_pct: 11.0,
        }
    }

    fn model() -> CalibModel {
        CalibModel {
            schema_version: SCHEMA_VERSION,
            host: "x86_64/linux/1cpu".to_string(),
            kernel_isa: "avx2-i8".to_string(),
            np_threads: 1,
            profile_frames: 30,
            scale_ns_per_cycle: 0.57,
            classes: vec![
                fit(KernelClass::Conv, 0.08, 0.4),
                fit(KernelClass::Pool, 0.0, 2.1),
            ],
            pooled: ClassFit {
                class: KernelClass::Elementwise,
                features: "pooled".to_string(),
                ..fit(KernelClass::Elementwise, 0.1, 0.0)
            },
        }
    }

    #[test]
    fn json_round_trips_exactly_enough() {
        let m = model();
        let parsed = CalibModel::parse_json(&m.to_json()).expect("round trip");
        assert_eq!(parsed.schema_version, m.schema_version);
        assert_eq!(parsed.kernel_isa, m.kernel_isa);
        assert_eq!(parsed.classes.len(), 2);
        assert_eq!(parsed.classes[0].class, KernelClass::Conv);
        assert!(
            (parsed.coeffs(KernelClass::Conv).cycles_per_mac
                - m.coeffs(KernelClass::Conv).cycles_per_mac)
                .abs()
                < 1e-12
        );
        assert!((parsed.scale_ns_per_cycle - 0.57).abs() < 1e-12);
        assert_eq!(parsed.pooled.features, "pooled");
    }

    #[test]
    fn unknown_class_falls_back_to_pooled() {
        let m = model();
        assert!(m.has_class(KernelClass::Conv));
        assert!(!m.has_class(KernelClass::Linear));
        let pooled = m.coeffs(KernelClass::Linear);
        assert!((pooled.cycles_per_mac - 0.1).abs() < 1e-12);
    }

    #[test]
    fn breakdown_splits_terms() {
        let c = ClassCoeffs {
            cycles_per_mac: 2.0,
            cycles_per_byte: 1.0,
            cycles_per_im2row_byte: 0.0,
            overhead_cycles: 50.0,
        };
        let b = c.breakdown(100, 30, 0);
        assert_eq!(b.compute, 200);
        assert_eq!(b.dma_stall, 30);
        assert_eq!(b.setup, 50);
        assert_eq!(b.total(), 280);
        assert!((c.predict(100, 30, 0) - 280.0).abs() < 1e-9);
    }

    #[test]
    fn negative_predictions_clamp_to_zero() {
        let c = ClassCoeffs {
            cycles_per_mac: 0.0,
            cycles_per_byte: 0.0,
            cycles_per_im2row_byte: 0.0,
            overhead_cycles: -100.0,
        };
        assert_eq!(c.predict(10, 10, 10), 0.0);
        assert_eq!(c.breakdown(10, 10, 10).total(), 0);
    }

    #[test]
    fn parse_rejects_malformed_artifacts() {
        assert!(CalibModel::parse_json("not json").is_err());
        assert!(CalibModel::parse_json("{}").is_err());
        // Unknown class name is an error, not a silent skip.
        let bad = model().to_json().replace("\"conv\"", "\"warp-drive\"");
        let err = CalibModel::parse_json(&bad).unwrap_err();
        assert!(err.contains("warp-drive"), "{err}");
    }

    #[test]
    fn class_names_round_trip() {
        for class in [
            KernelClass::Conv,
            KernelClass::Pointwise,
            KernelClass::DepthwiseConv,
            KernelClass::Linear,
            KernelClass::Pool,
            KernelClass::Elementwise,
        ] {
            assert_eq!(
                KernelClass::from_calib_name(class.calib_name()),
                Some(class)
            );
        }
        assert_eq!(KernelClass::from_calib_name("bogus"), None);
    }

    #[test]
    fn load_reports_missing_file() {
        let err = CalibModel::load("/nonexistent/CALIB.json").unwrap_err();
        assert!(err.contains("read"), "{err}");
    }
}
